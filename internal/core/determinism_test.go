package core

import (
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/faults"
	"repro/internal/sim"
)

// TestSameSeedSameResults is the regression guard for the invariant the
// parallel experiment runner relies on: a Model run is a pure function of
// its Config (including Seed), so two runs with the same seed must produce
// identical Results — counts, latency sample moments, and per-class rows.
// A differently shaped run B (three groups of two sites, with loss) comes in
// between the two: what B leaves on the shelves when its Run returns — RNG
// sources, kernel storage, certifier index maps — must not carry into the
// second run of A.
func TestSameSeedSameResults(t *testing.T) {
	other := Config{Sites: 2, Groups: 3, Clients: 60, TotalTxns: 200, Seed: 7,
		Faults: faults.Config{Loss: faults.Loss{Kind: faults.LossRandom, Rate: 0.05}}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"centralized", Config{Sites: 1, Clients: 30, TotalTxns: 200, Seed: 99}},
		{"replicated", Config{Sites: 3, Clients: 30, TotalTxns: 200, Seed: 99}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(cfg Config) *Results {
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
			a := run(tc.cfg)
			run(other)
			b := run(tc.cfg)

			if a.Issued != b.Issued || a.Submitted != b.Submitted ||
				a.Committed != b.Committed || a.Aborted != b.Aborted {
				t.Fatalf("counts diverge: %d/%d/%d/%d vs %d/%d/%d/%d",
					a.Issued, a.Submitted, a.Committed, a.Aborted,
					b.Issued, b.Submitted, b.Committed, b.Aborted)
			}
			if a.Duration != b.Duration || a.Events != b.Events {
				t.Fatalf("run shape diverges: duration %v/%v events %d/%d",
					a.Duration, b.Duration, a.Events, b.Events)
			}
			if a.TPM != b.TPM || a.AbortRatePct != b.AbortRatePct || a.NetKBps != b.NetKBps {
				t.Fatalf("headline metrics diverge: tpm %v/%v abort %v/%v net %v/%v",
					a.TPM, b.TPM, a.AbortRatePct, b.AbortRatePct, a.NetKBps, b.NetKBps)
			}
			// Latency sample moments, not just means: same n, sum, spread.
			for _, s := range []struct {
				name string
				x, y interface {
					N() int
					Mean() float64
					StdDev() float64
				}
			}{
				{"committed", a.LatCommitted, b.LatCommitted},
				{"readonly", a.LatReadOnly, b.LatReadOnly},
				{"update", a.LatUpdate, b.LatUpdate},
				{"cert", a.CertLat, b.CertLat},
			} {
				if s.x.N() != s.y.N() || s.x.Mean() != s.y.Mean() || s.x.StdDev() != s.y.StdDev() {
					t.Fatalf("%s latency sample diverges: n=%d/%d mean=%v/%v sd=%v/%v",
						s.name, s.x.N(), s.y.N(), s.x.Mean(), s.y.Mean(), s.x.StdDev(), s.y.StdDev())
				}
			}
			if !reflect.DeepEqual(a.Classes, b.Classes) {
				t.Fatalf("class breakdown diverges:\n%+v\nvs\n%+v", a.Classes, b.Classes)
			}
			if !reflect.DeepEqual(a.GCS, b.GCS) {
				t.Fatalf("GCS stats diverge: %+v vs %+v", a.GCS, b.GCS)
			}
		})
	}
}

// TestRunLeavesTheModelCollectable: once Run returns, nothing the model put
// on a shelf — a kernel slot's callback, a history block's write-set — keeps
// the model reachable, so the collector takes it.
func TestRunLeavesTheModelCollectable(t *testing.T) {
	ref := func() weak.Pointer[Model] {
		m, _ := runModel(t, Config{Sites: 3, Clients: 30, TotalTxns: 200, Seed: 99, Protocol: ProtocolOptimistic})
		return weak.Make(m)
	}()
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a model that has run is still reachable after a collection")
	}
}

// TestKeptResultsLeaveTheModelCollectable: a caller that keeps a run's
// Results — expr keeps every replication's for the aggregate — does not keep
// its model, so a long campaign holds results, not models.
func TestKeptResultsLeaveTheModelCollectable(t *testing.T) {
	ref, res := func() (weak.Pointer[Model], *Results) {
		m, r := runModel(t, Config{Sites: 3, Clients: 30, TotalTxns: 200, Seed: 99, CollectTxnLog: true})
		return weak.Make(m), r
	}()
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a kept Results keeps its model reachable")
	}
	if res.TxnLog.Len() == 0 {
		t.Fatal("the kept Results lost its transaction log")
	}
}

// TestDifferentSeedDifferentResults is the counterpart sanity check: seeds
// actually steer the run (otherwise replication CIs would be meaningless).
func TestDifferentSeedDifferentResults(t *testing.T) {
	run := func(seed int64) *Results {
		m, err := New(Config{Sites: 1, Clients: 30, TotalTxns: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(1), run(2)
	if a.TPM == b.TPM && a.MeanLatencyMS == b.MeanLatencyMS && a.Events == b.Events {
		t.Fatal("two different seeds produced an identical run")
	}
}

// TestDatagramChaosSafeAndDeterministic drives the receiver-side datagram
// chaos injectors — duplication and reordering — hard, in both topologies.
// Ordered streams dedupe by sequence number and the relay round is
// idempotent, so the runs must stay safe; and the injectors draw from the
// per-host RNG streams, so replays must be exact. The fault-free baseline
// must also be untouched by the injectors' mere presence in the code path.
func TestDatagramChaosSafeAndDeterministic(t *testing.T) {
	mk := func(groups int) Config {
		cfg := Config{Sites: 3, Clients: 30, TotalTxns: 200, Seed: 99}
		if groups > 1 {
			cfg.Groups = groups
			cfg.Sites = 2
			cfg.Clients = 60
		}
		cfg.Faults.Duplicate = faults.Chaos{Rate: 0.3, At: sim.Second}
		cfg.Faults.Reorder = faults.Chaos{Rate: 0.3, Delay: 3 * sim.Millisecond, At: sim.Second}
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"classic", mk(1)},
		{"grouped", mk(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *Results {
				m, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			a, b := run(), run()
			if a.SafetyErr != nil {
				t.Fatalf("safety under datagram chaos: %v", a.SafetyErr)
			}
			if a.Inconsistencies != 0 || a.CertDrops != 0 {
				t.Fatalf("inconsistencies=%d certdrops=%d", a.Inconsistencies, a.CertDrops)
			}
			if a.Committed == 0 {
				t.Fatal("nothing committed under datagram chaos")
			}
			if a.Summary() != b.Summary() || a.Events != b.Events {
				t.Fatalf("chaos replay diverged:\n  a: %s (%d events)\n  b: %s (%d events)",
					a.Summary(), a.Events, b.Summary(), b.Events)
			}
		})
	}
}
