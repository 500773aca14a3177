package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// The kitchen sink: five replicas under simultaneous clock drift, scheduling
// latency, random loss, and a mid-run crash — every fault type of
// Section 5.3 at once. The safety property must still hold.
func TestCombinedFaultStress(t *testing.T) {
	for _, seed := range []int64{101, 202} {
		r := run(t, Config{
			Sites:     5,
			Clients:   250,
			TotalTxns: 1200,
			Seed:      seed,
			Faults: faults.Config{
				ClockDriftRate:    0.03,
				ClockDriftSites:   []int32{2, 4},
				SchedLatencyMean:  2 * sim.Millisecond,
				SchedLatencySites: []int32{3},
				Loss:              faults.Loss{Kind: faults.LossRandom, Rate: 0.03},
				Crashes:           []faults.Crash{{Site: 5, At: 15 * sim.Second}},
			},
			MaxSimTime: 20 * sim.Minute,
		})
		if r.SafetyErr != nil {
			t.Fatalf("seed %d: safety: %v", seed, r.SafetyErr)
		}
		if r.Inconsistencies != 0 {
			t.Fatalf("seed %d: inconsistencies %d", seed, r.Inconsistencies)
		}
		if r.GCS.ViewChanges == 0 {
			t.Fatalf("seed %d: crash produced no view change", seed)
		}
		live := 0
		for _, s := range r.Sites {
			if s.State != "crashed" && s.Committed > 0 {
				live++
			}
		}
		if live != 4 {
			t.Fatalf("seed %d: %d live committing sites, want 4", seed, live)
		}
	}
}
