package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// rejoinConfig is a 3-site run with a crash-and-rejoin of one site and
// enough transaction budget that traffic continues well past the rejoin.
func rejoinConfig(protocol Protocol, site int32, seed int64) Config {
	return Config{
		Sites:     3,
		Protocol:  protocol,
		Clients:   90,
		TotalTxns: 2500,
		Seed:      seed,
		Faults: faults.Config{
			Crashes:  []faults.Crash{{Site: site, At: 10 * sim.Second}},
			Recovers: []faults.Recover{{Site: site, At: 25 * sim.Second}},
		},
		MaxSimTime: 10 * sim.Minute,
	}
}

func runRejoin(t *testing.T, cfg Config) *Results {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func checkRejoinResults(t *testing.T, r *Results, site int32) {
	t.Helper()
	if r.SafetyErr != nil {
		t.Fatalf("safety violation: %v", r.SafetyErr)
	}
	if r.Inconsistencies != 0 {
		t.Fatalf("%d local/global inconsistencies", r.Inconsistencies)
	}
	if r.RejoinViolations != 0 {
		t.Fatalf("%d rejoin prefix violations", r.RejoinViolations)
	}
	if r.CertDrops != 0 {
		t.Fatalf("%d certification payloads dropped", r.CertDrops)
	}
	if r.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", r.Recoveries)
	}
	if r.TransferBytes <= 0 {
		t.Fatal("no snapshot bytes transferred")
	}
	if r.MeanRecoveryMS <= 0 || r.MeanDowntimeMS <= 0 {
		t.Fatalf("recovery=%.2fms downtime=%.2fms, want both positive",
			r.MeanRecoveryMS, r.MeanDowntimeMS)
	}
	if r.MeanDowntimeMS < r.MeanRecoveryMS {
		t.Fatalf("downtime %.2fms below recovery time %.2fms", r.MeanDowntimeMS, r.MeanRecoveryMS)
	}
	var sr *SiteResult
	for i := range r.Sites {
		if int32(r.Sites[i].Site) == site {
			sr = &r.Sites[i]
		}
	}
	if sr == nil {
		t.Fatalf("no result row for site %d", site)
	}
	if !sr.Recovered || sr.State != "up" {
		t.Fatalf("site %d: recovered=%v state=%q, want a completed rejoin", site, sr.Recovered, sr.State)
	}
	if sr.TransferKB <= 0 {
		t.Fatalf("site %d transferred %.1fKB", site, sr.TransferKB)
	}
	// The recovered site must serve traffic again after the rejoin: its
	// clients were woken with AbortCrash and resubmitted.
	if sr.Committed == 0 {
		t.Fatalf("site %d committed nothing", site)
	}
	if r.GCS.Joins != 1 {
		t.Fatalf("GCS Joins = %d, want 1", r.GCS.Joins)
	}
}

func TestCrashAndRejoinConservative(t *testing.T) {
	r := runRejoin(t, rejoinConfig(ProtocolConservative, 3, 7))
	checkRejoinResults(t, r, 3)
}

func TestCrashAndRejoinOptimistic(t *testing.T) {
	r := runRejoin(t, rejoinConfig(ProtocolOptimistic, 3, 7))
	checkRejoinResults(t, r, 3)
}

func TestCrashAndRejoinSequencer(t *testing.T) {
	// Site 1 is the sequencer; its rejoin exercises sequencer replacement
	// plus the joiner-returns-as-follower path.
	r := runRejoin(t, rejoinConfig(ProtocolConservative, 1, 11))
	checkRejoinResults(t, r, 1)
}

func TestRejoinUnderLossAndDrift(t *testing.T) {
	cfg := rejoinConfig(ProtocolConservative, 2, 13)
	cfg.Faults.Loss = faults.Loss{Kind: faults.LossRandom, Rate: 0.03}
	cfg.Faults.ClockDriftRate = 0.02
	r := runRejoin(t, cfg)
	checkRejoinResults(t, r, 2)
}

// TestRejoinDeterministicReplay: the same seed must reproduce the identical
// run, recovery included.
func TestRejoinDeterministicReplay(t *testing.T) {
	a := runRejoin(t, rejoinConfig(ProtocolConservative, 3, 21))
	b := runRejoin(t, rejoinConfig(ProtocolConservative, 3, 21))
	if a.Summary() != b.Summary() {
		t.Fatalf("replay diverged:\n  %s\n  %s", a.Summary(), b.Summary())
	}
	if a.Committed != b.Committed || a.TransferBytes != b.TransferBytes ||
		a.MeanRecoveryMS != b.MeanRecoveryMS || a.DeltaApplied != b.DeltaApplied {
		t.Fatalf("recovery metrics diverged: %+v vs %+v",
			[4]any{a.Committed, a.TransferBytes, a.MeanRecoveryMS, a.DeltaApplied},
			[4]any{b.Committed, b.TransferBytes, b.MeanRecoveryMS, b.DeltaApplied})
	}
}

// TestRunWaitsForPendingRecovery: a recovery scheduled long after the
// transaction budget drains must still be exercised — the run may not
// quiesce while a crashed site's rejoin is pending, or crash-and-rejoin
// schedules would silently skip the recovery under test.
func TestRunWaitsForPendingRecovery(t *testing.T) {
	cfg := Config{
		Sites:     3,
		Clients:   30,
		TotalTxns: 60, // drains within a few simulated seconds
		Seed:      5,
		Faults: faults.Config{
			Crashes:  []faults.Crash{{Site: 3, At: 5 * sim.Second}},
			Recovers: []faults.Recover{{Site: 3, At: 150 * sim.Second}},
		},
		MaxSimTime: 10 * sim.Minute,
	}
	r := runRejoin(t, cfg)
	if r.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1 (run quiesced before the scheduled rejoin)", r.Recoveries)
	}
	if r.SafetyErr != nil {
		t.Fatalf("safety: %v", r.SafetyErr)
	}
}

// TestRecoverValidation rejects malformed crash-and-rejoin schedules.
func TestRecoverValidation(t *testing.T) {
	bad := []faults.Config{
		{Recovers: []faults.Recover{{Site: 2, At: 20 * sim.Second}}}, // no crash
		{Crashes: []faults.Crash{{Site: 2, At: 20 * sim.Second}},
			Recovers: []faults.Recover{{Site: 2, At: 10 * sim.Second}}}, // before crash
		{Crashes: []faults.Crash{{Site: 2, At: 5 * sim.Second}},
			Recovers: []faults.Recover{{Site: 2, At: 10 * sim.Second}, {Site: 2, At: 20 * sim.Second}}}, // twice
		{Recovers: []faults.Recover{{Site: 9, At: 20 * sim.Second}}}, // unknown site
	}
	for i, f := range bad {
		_, err := New(Config{Sites: 3, Clients: 30, TotalTxns: 100, Faults: f})
		if err == nil {
			t.Fatalf("bad schedule %d accepted", i)
		}
	}
}
