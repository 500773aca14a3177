package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/tpcc"
)

// overloadCalibration compresses the think time so the closed-loop workload
// actually outruns a small admission cap: with the paper's 9s think time the
// per-site active count stays far below any sane cap and rejections never
// fire at test scale.
func overloadCalibration() *tpcc.Calibration {
	cal := tpcc.DefaultCalibration()
	cal.ThinkTime = 200 * sim.Millisecond
	return cal
}

// tightAdmission is an admission cap small enough for rejections and
// retries to occur at unit-test scale.
func tightAdmission() *AdmissionConfig {
	return &AdmissionConfig{MaxActivePerSite: 4}
}

// TestAdmissionRejectsAndRetriesStaySafe drives a replicated cluster hard
// enough that the admission cap fires, and pins the whole retry loop:
// rejections surface, clients resubmit, accounting stays uniform
// (submitted = committed + aborted + rejected), and the safety checker —
// which scans every site log for double commits — finds nothing. A retried
// transaction keeps its TID, so a single duplicate certification would fail
// the run. The cap also bounds each replica's termination backlog, up to
// preemption: a local transaction stays active until its termination
// settles, unless a certified transaction preempts it while it waits — an
// abort that frees its slot with the termination still in flight.
func TestAdmissionRejectsAndRetriesStaySafe(t *testing.T) {
	r := run(t, Config{
		Sites:       3,
		Clients:     120,
		TotalTxns:   400,
		Seed:        11,
		Calibration: overloadCalibration(),
		Admission:   tightAdmission(),
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under admission pressure: %v", r.SafetyErr)
	}
	if r.Inconsistencies != 0 {
		t.Fatalf("inconsistencies = %d", r.Inconsistencies)
	}
	if r.Rejected == 0 {
		t.Fatal("a 4-per-site cap under 40 clients/site never rejected — admission control inert")
	}
	if r.Retries == 0 {
		t.Fatal("rejections occurred but no client ever retried")
	}
	if r.Committed+r.Aborted+r.Rejected != r.Submitted {
		t.Fatalf("accounting: submitted=%d committed=%d aborted=%d rejected=%d",
			r.Submitted, r.Committed, r.Aborted, r.Rejected)
	}
	// Every issued transaction ends in exactly one terminal state: committed,
	// aborted (final, never resubmitted), or abandoned after exhausting its
	// retry budget. A retried TID landing in two states would break this.
	if r.Committed+r.Aborted+r.GiveUps != int64(r.Issued) {
		t.Fatalf("ledger: issued=%d committed=%d aborted=%d giveups=%d",
			r.Issued, r.Committed, r.Aborted, r.GiveUps)
	}
	if r.Committed == 0 {
		t.Fatal("nothing committed under admission pressure")
	}
	maxActive := int64(tightAdmission().MaxActivePerSite)
	for _, s := range r.Sites {
		if s.BacklogPeak > maxActive+s.Aborted {
			t.Fatalf("site %d: termination backlog peaked at %d, past the admission cap %d plus its %d aborts",
				s.Site, s.BacklogPeak, maxActive, s.Aborted)
		}
	}
	if r.RetryLat.N() == 0 {
		t.Fatal("no retry-latency samples despite retries")
	}
}

// TestSaturationBoundedQueues holds a 2x saturation for the whole run and
// pins the transmit queue end to end: its high-water mark stays under 1 MiB,
// because every queued message belongs to one of the admission cap's active
// transactions, and safety holds — also with the sequencer site gray-failed
// (10x slow, never suspected) on top.
func TestSaturationBoundedQueues(t *testing.T) {
	for _, c := range []struct {
		name string
		slow []faults.SlowNode
	}{
		{"saturation", nil},
		{"saturation+gray-sequencer", []faults.SlowNode{{Site: 1, Factor: 10, At: 2 * sim.Second}}},
	} {
		for _, p := range Protocols() {
			t.Run(c.name+"/"+string(p), func(t *testing.T) {
				r := run(t, Config{
					Sites:       3,
					Clients:     120,
					TotalTxns:   400,
					Seed:        12,
					Protocol:    p,
					Calibration: overloadCalibration(),
					Admission:   tightAdmission(),
					Faults: faults.Config{
						Saturation: faults.Saturation{Factor: 2, At: 2 * sim.Second},
						SlowNodes:  c.slow,
					},
				})
				if r.SafetyErr != nil {
					t.Fatalf("safety under saturation: %v", r.SafetyErr)
				}
				if r.GCS.QueuePeakBytes > 1<<20 {
					t.Fatalf("transmit queue peaked at %d bytes, past 1 MiB", r.GCS.QueuePeakBytes)
				}
				if r.Committed == 0 {
					t.Fatal("nothing committed under saturation")
				}
			})
		}
	}
}

// TestGrayFailureNeverSuspected degrades one site's CPU, disk, and link by
// 10x while its protocol heartbeats stay timely — the canonical gray
// failure. The failure detector must not fire (zero view changes), the slow
// site must keep committing, and the run must stay safe.
func TestGrayFailureNeverSuspected(t *testing.T) {
	r := run(t, Config{
		Sites:     3,
		Clients:   60,
		TotalTxns: 300,
		Seed:      13,
		Faults: faults.Config{
			SlowNodes: []faults.SlowNode{{Site: 3, Factor: 10, At: 5 * sim.Second}},
		},
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under gray failure: %v", r.SafetyErr)
	}
	if r.GCS.ViewChanges != 0 {
		t.Fatalf("gray-failed site was suspected: %d view changes", r.GCS.ViewChanges)
	}
	for _, sr := range r.Sites {
		if sr.Crashed {
			t.Fatalf("site %d marked crashed under a slow-node fault", sr.Site)
		}
		if sr.Committed == 0 {
			t.Fatalf("site %d committed nothing", sr.Site)
		}
	}
}

// TestGrayFailureRecovers lifts the degradation mid-run and checks the slow
// site returns to full speed without ever being suspected.
func TestGrayFailureRecovers(t *testing.T) {
	r := run(t, Config{
		Sites:     3,
		Clients:   60,
		TotalTxns: 300,
		Seed:      14,
		Faults: faults.Config{
			SlowNodes: []faults.SlowNode{{Site: 2, Factor: 10, At: 5 * sim.Second, Until: 15 * sim.Second}},
		},
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety: %v", r.SafetyErr)
	}
	if r.GCS.ViewChanges != 0 {
		t.Fatalf("view changes = %d", r.GCS.ViewChanges)
	}
	if r.Committed < 250 {
		t.Fatalf("committed = %d after degradation lifted", r.Committed)
	}
}

// TestOverloadReplayDeterministic replays the full overload faultload —
// saturation, gray failure, admission, retries — from the same seed and
// requires byte-identical results. Retry backoff draws from the client's
// own RNG stream, so a single nondeterministic draw would diverge the
// summaries.
func TestOverloadReplayDeterministic(t *testing.T) {
	cfg := Config{
		Sites:       3,
		Clients:     90,
		TotalTxns:   300,
		Seed:        15,
		Calibration: overloadCalibration(),
		Admission:   tightAdmission(),
		Faults: faults.Config{
			Saturation: faults.Saturation{Factor: 2, At: 2 * sim.Second},
			SlowNodes:  []faults.SlowNode{{Site: 3, Factor: 10, At: 3 * sim.Second}},
		},
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Summary() != b.Summary() {
		t.Fatalf("replay diverged:\n a=%s\n b=%s", a.Summary(), b.Summary())
	}
	if a.Events != b.Events || a.Rejected != b.Rejected || a.Retries != b.Retries {
		t.Fatalf("replay diverged: events %d/%d rejected %d/%d retries %d/%d",
			a.Events, b.Events, a.Rejected, b.Rejected, a.Retries, b.Retries)
	}
}

// TestSaturationRaisesThroughputWithoutAdmission is the control run that
// shows saturation actually injects load: with no admission configured and
// the default 9s think time, compressing think time by 2x must raise the
// commit rate, not trip any overload machinery.
func TestSaturationRaisesThroughputWithoutAdmission(t *testing.T) {
	base := run(t, Config{Sites: 3, Clients: 60, TotalTxns: 300, Seed: 16})
	sat := run(t, Config{
		Sites: 3, Clients: 60, TotalTxns: 300, Seed: 16,
		Faults: faults.Config{Saturation: faults.Saturation{Factor: 2, At: sim.Second}},
	})
	if sat.TPM <= base.TPM {
		t.Fatalf("saturated tpm %.0f <= baseline %.0f — saturation inert", sat.TPM, base.TPM)
	}
	if sat.Rejected != 0 || sat.Retries != 0 {
		t.Fatalf("no admission configured, yet rejected=%d retries=%d", sat.Rejected, sat.Retries)
	}
}
