package campaign

import (
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/sim"
	"repro/internal/tpcc"
)

// overloadBase builds the workload the overload sweep runs: think time
// compressed far below the paper's 9s so the closed loop can actually outrun
// the deliberately tight admission cap, and enough transactions that the
// fault onsets (drawn in the schedule horizon) land mid-run. Each call
// returns a fresh calibration so parallel runs share nothing.
func overloadBase(protocol core.Protocol) core.Config {
	cal := tpcc.DefaultCalibration()
	cal.ThinkTime = 300 * sim.Millisecond
	return core.Config{
		Sites:       3,
		Clients:     90,
		TotalTxns:   2000,
		Protocol:    protocol,
		Calibration: cal,
		Admission:   &core.AdmissionConfig{MaxActivePerSite: 4},
	}
}

// overloadTasks regenerates per-task configs so no pointer (calibration,
// admission) is shared between parallel workers.
func overloadTasks(plan []Schedule, protocol core.Protocol) []expr.Task {
	tasks := Tasks(plan, overloadBase(protocol))
	for i := range tasks {
		fresh := overloadBase(protocol)
		fresh.Seed = tasks[i].Config.Seed
		fresh.Faults = tasks[i].Config.Faults
		tasks[i].Config = fresh
	}
	return tasks
}

// TestOverloadCampaignSweep is the statistical acceptance test: a 30-schedule
// seeded sweep with every schedule carrying both overload faults — sustained
// saturation and a slow-node gray failure, composed with whatever else the
// generator draws — must finish with zero safety violations under both
// protocols, and the admission cap demonstrably firing (rejections and
// retries over the sweep, not inert). The cap is what bounds the queues: a
// replica's termination backlog passes it only by the local transactions a
// certified one preempted while their terminations were in flight (each an
// abort), and the transmit queue stays under 1 MiB.
func TestOverloadCampaignSweep(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	p := Params{Sites: 3, Horizon: 12 * sim.Second, Overload: true}
	plan := Plan(23, n, p)
	for _, s := range plan {
		if !s.Has(KindSaturation) || !s.Has(KindSlowNode) {
			t.Fatalf("seed %d: overload plan missing overload faults: %s", s.Seed, s.Label())
		}
		if !s.Faults.Saturation.Active() {
			t.Fatalf("seed %d: saturation kind listed but inert", s.Seed)
		}
	}

	for _, protocol := range core.Protocols() {
		protocol := protocol
		t.Run(string(protocol), func(t *testing.T) {
			points, err := (&expr.Runner{Workers: 4}).Run(overloadTasks(plan, protocol))
			if err != nil {
				t.Fatal(err)
			}
			var rejected, retries int64
			var queuePeak, backlogPeak int64
			maxActive := int64(overloadBase(protocol).Admission.MaxActivePerSite)
			for i, pt := range points {
				r := pt.Agg.Runs[0]
				if r.SafetyErr != nil {
					t.Fatalf("schedule %d (%s, seed %d) unsafe: %v",
						i, plan[i].Label(), plan[i].Seed, r.SafetyErr)
				}
				if r.Inconsistencies != 0 {
					t.Fatalf("schedule %d: %d inconsistencies", i, r.Inconsistencies)
				}
				if r.GCS.QueuePeakBytes > 1<<20 {
					t.Fatalf("schedule %d (seed %d): transmit queue peaked at %d bytes, past 1 MiB",
						i, plan[i].Seed, r.GCS.QueuePeakBytes)
				}
				for _, s := range r.Sites {
					if s.BacklogPeak > maxActive+s.Aborted {
						t.Fatalf("schedule %d (seed %d) site %d: termination backlog peaked at %d, past the admission cap %d plus its %d aborts",
							i, plan[i].Seed, s.Site, s.BacklogPeak, maxActive, s.Aborted)
					}
				}
				if r.Committed == 0 {
					t.Fatalf("schedule %d (seed %d): nothing committed", i, plan[i].Seed)
				}
				rejected += r.Rejected
				retries += r.Retries
				queuePeak = max(queuePeak, r.GCS.QueuePeakBytes)
				backlogPeak = max(backlogPeak, r.BacklogPeak)
			}
			if rejected == 0 {
				t.Fatal("no schedule in the sweep ever rejected a transaction — admission control inert")
			}
			if retries == 0 {
				t.Fatal("rejections occurred but no client ever retried")
			}
			t.Logf("%d schedules: rejected=%d retries=%d queuepeak=%dKB backlogpeak=%d",
				len(points), rejected, retries, queuePeak/1024, backlogPeak)
		})
	}
}

// TestOverloadCampaignReplayIdentical re-runs a slice of the overload sweep
// with a different worker count and demands byte-identical summaries: the
// retry backoff jitter, saturation onset, and slow-node degradation all draw
// from forked per-run RNG streams, so parallelism must not change a single
// reported number.
func TestOverloadCampaignReplayIdentical(t *testing.T) {
	p := Params{Sites: 3, Horizon: 12 * sim.Second, Overload: true}
	plan := Plan(29, 5, p)
	wide, err := (&expr.Runner{Workers: 4}).Run(overloadTasks(plan, core.ProtocolConservative))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := (&expr.Runner{Workers: 1}).Run(overloadTasks(plan, core.ProtocolConservative))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan {
		a, b := wide[i].Agg.Runs[0], serial[i].Agg.Runs[0]
		if a.Summary() != b.Summary() {
			t.Fatalf("schedule %d (seed %d) diverged across worker counts:\n 4: %s\n 1: %s",
				i, plan[i].Seed, a.Summary(), b.Summary())
		}
		if a.Events != b.Events {
			t.Fatalf("schedule %d: events %d vs %d", i, a.Events, b.Events)
		}
	}
}

// TestOverloadScheduleShape pins the generator's overload-specific
// invariants over many seeds: forced saturation is the canonical 2x, the
// gray failure is the canonical 10x and may land on any site — including
// the sequencer, the hardest case — and every window is well-formed (Until
// after At when bounded).
func TestOverloadScheduleShape(t *testing.T) {
	p := Params{Sites: 3, Overload: true}
	for _, s := range Plan(31, 200, p) {
		sat := s.Faults.Saturation
		if sat.Factor != 2 {
			t.Fatalf("seed %d: forced saturation factor %.2f, want the canonical 2x", s.Seed, sat.Factor)
		}
		if sat.Until != 0 && sat.Until <= sat.At {
			t.Fatalf("seed %d: saturation until %v not after at %v", s.Seed, sat.Until, sat.At)
		}
		if len(s.Faults.SlowNodes) == 0 {
			t.Fatalf("seed %d: no slow node in overload schedule", s.Seed)
		}
		for _, sn := range s.Faults.SlowNodes {
			if sn.Factor != 10 {
				t.Fatalf("seed %d: slow-node factor %.1f, want the canonical 10x", s.Seed, sn.Factor)
			}
			if int(sn.Site) < 1 || int(sn.Site) > 3 {
				t.Fatalf("seed %d: slow node targets unknown site %d", s.Seed, sn.Site)
			}
			if sn.Until != 0 && sn.Until <= sn.At {
				t.Fatalf("seed %d: slow-node until %v not after at %v", s.Seed, sn.Until, sn.At)
			}
		}
	}
}
