package expr

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// smallGrid is a reduced (configuration × clients) grid that runs in a few
// hundred milliseconds per point.
func smallGrid(baseSeed int64) []Task {
	var tasks []Task
	for _, sites := range []int{1, 3} {
		for _, clients := range []int{20, 40} {
			tasks = append(tasks, Task{
				Label: fmt.Sprintf("%ds/%dc", sites, clients),
				Config: core.Config{
					Sites:     sites,
					Clients:   clients,
					TotalTxns: 120,
					Seed:      baseSeed,
				},
			})
		}
	}
	return tasks
}

func TestDeriveSeed(t *testing.T) {
	if got := DeriveSeed(42, 0); got != 42 {
		t.Fatalf("rep 0 must keep the base seed, got %d", got)
	}
	seen := map[int64]bool{}
	for rep := 0; rep < 100; rep++ {
		s := DeriveSeed(42, rep)
		if seen[s] {
			t.Fatalf("duplicate derived seed %d at rep %d", s, rep)
		}
		seen[s] = true
		if s != DeriveSeed(42, rep) {
			t.Fatalf("DeriveSeed not deterministic at rep %d", rep)
		}
	}
	if DeriveSeed(42, 1) == DeriveSeed(43, 1) {
		t.Fatal("different base seeds derived the same replication seed")
	}
}

// aggKey projects the fields a figure consumes into a comparable value.
func aggKey(a *core.Aggregate) string {
	var b strings.Builder
	for _, get := range []func(*core.Results) float64{
		func(r *core.Results) float64 { return r.TPM },
		func(r *core.Results) float64 { return r.MeanLatencyMS },
		func(r *core.Results) float64 { return r.P95LatencyMS },
		func(r *core.Results) float64 { return r.AbortRatePct },
		func(r *core.Results) float64 { return r.CPUUtilPct },
		func(r *core.Results) float64 { return r.DiskUtilPct },
		func(r *core.Results) float64 { return r.NetKBps },
	} {
		fmt.Fprintf(&b, "%v|", a.Stat(get))
	}
	fmt.Fprintf(&b, "%d|%d|%v|%v", pooledLat(a).N(),
		a.Pool(func(r *core.Results) *metrics.Sample { return r.CertLat }).N(), a.Classes, a.Reps)
	return b.String()
}

// pooledLat pools the committed-latency samples of a point's replications.
func pooledLat(a *core.Aggregate) *metrics.Sample {
	return a.Pool(func(r *core.Results) *metrics.Sample { return r.LatCommitted })
}

// TestRunnerWorkerCountInvariance is the tentpole invariant: a single-worker
// run produces byte-identical aggregates to a multi-worker run.
func TestRunnerWorkerCountInvariance(t *testing.T) {
	tasks := smallGrid(7)
	serial, err := (&Runner{Workers: 1, Reps: 2}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Runner{Workers: 8, Reps: 2}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(tasks) || len(parallel) != len(tasks) {
		t.Fatalf("point counts: serial=%d parallel=%d want %d", len(serial), len(parallel), len(tasks))
	}
	for i := range tasks {
		sk, pk := aggKey(serial[i].Agg), aggKey(parallel[i].Agg)
		if sk != pk {
			t.Errorf("%s: aggregates diverge between worker counts:\n  1 worker: %s\n  8 workers: %s",
				tasks[i].Label, sk, pk)
		}
		if !reflect.DeepEqual(pooledLat(serial[i].Agg).Values(), pooledLat(parallel[i].Agg).Values()) {
			t.Errorf("%s: pooled latency samples diverge between worker counts", tasks[i].Label)
		}
	}
}

// TestRunnerWorkerCountInvarianceAggregateClients repeats the invariance
// check with the aggregate client tier: the batched arrival events draw from
// per-site forked RNG streams inside each model's own kernel, so worker
// count must still not leak into results at any pool size.
func TestRunnerWorkerCountInvarianceAggregateClients(t *testing.T) {
	var tasks []Task
	for _, clients := range []int{40, 5000} {
		tasks = append(tasks, Task{
			Label: fmt.Sprintf("agg/%dc", clients),
			Config: core.Config{
				Sites:            3,
				Clients:          clients,
				TotalTxns:        300,
				AggregateClients: 1,
				Seed:             11,
			},
		})
	}
	var points [3][]Point
	for i, workers := range []int{1, 4, 8} {
		pts, err := (&Runner{Workers: workers, Reps: 2}).Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		points[i] = pts
	}
	for ti := range tasks {
		base := aggKey(points[0][ti].Agg)
		for i, workers := range []int{1, 4, 8} {
			if k := aggKey(points[i][ti].Agg); k != base {
				t.Errorf("%s: aggregates diverge between worker counts:\n  1 worker: %s\n  %d workers: %s",
					tasks[ti].Label, base, workers, k)
			}
			if !reflect.DeepEqual(pooledLat(points[0][ti].Agg).Values(), pooledLat(points[i][ti].Agg).Values()) {
				t.Errorf("%s: pooled latency samples diverge between 1 and %d workers", tasks[ti].Label, workers)
			}
		}
	}
}

func TestRunnerReplicationsAggregate(t *testing.T) {
	tasks := []Task{{
		Label:  "1s/20c",
		Config: core.Config{Sites: 1, Clients: 20, TotalTxns: 120, Seed: 42},
	}}
	pts, err := (&Runner{Workers: 4, Reps: 3}).Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	a := pts[0].Agg
	if a.Reps != 3 || len(a.Runs) != 3 {
		t.Fatalf("want 3 replications, got Reps=%d Runs=%d", a.Reps, len(a.Runs))
	}
	tpm := a.Stat(func(r *core.Results) float64 { return r.TPM })
	if tpm.N != 3 {
		t.Fatalf("TPM stat over %d observations, want 3", tpm.N)
	}
	// Different derived seeds make real runs differ: a nonzero CI is
	// evidence the replications were independent.
	if tpm.CI95 == 0 && a.Runs[0].TPM == a.Runs[1].TPM && a.Runs[1].TPM == a.Runs[2].TPM {
		t.Fatal("all replications produced identical TPM; seeds not derived")
	}
	// Pooled latency sample is the concatenation of the replications'.
	want := a.Runs[0].LatCommitted.N() + a.Runs[1].LatCommitted.N() + a.Runs[2].LatCommitted.N()
	if got := pooledLat(a).N(); got != want {
		t.Fatalf("pooled latency sample n=%d want %d", got, want)
	}
}

func TestRunnerProgress(t *testing.T) {
	tasks := smallGrid(3)
	var calls int
	last := -1
	rn := &Runner{Workers: 4, Reps: 2, OnRun: func(done, total int, task Task, rep int, res *core.Results, err error) {
		calls++
		if total != len(tasks)*2 {
			t.Errorf("total=%d want %d", total, len(tasks)*2)
		}
		if done <= last {
			t.Errorf("done not monotonic: %d after %d", done, last)
		}
		last = done
		if err != nil || res == nil {
			t.Errorf("unexpected run failure for %s rep %d: %v", task.Label, rep, err)
		}
	}}
	if _, err := rn.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if calls != len(tasks)*2 {
		t.Fatalf("OnRun called %d times, want %d", calls, len(tasks)*2)
	}
}

func TestRunnerError(t *testing.T) {
	tasks := []Task{
		{Label: "ok", Config: core.Config{Sites: 1, Clients: 10, TotalTxns: 50, Seed: 1}},
		{Label: "bad", Config: core.Config{Sites: 99, Clients: 10, TotalTxns: 50, Seed: 1}},
	}
	pts, err := (&Runner{Workers: 2}).Run(tasks)
	if err == nil {
		t.Fatal("want error from unsupported site count")
	}
	if pts[0].Err != nil || pts[0].Agg == nil {
		t.Fatalf("healthy point poisoned by sibling failure: %v", pts[0].Err)
	}
	if pts[1].Err == nil || pts[1].Agg != nil {
		t.Fatal("failing point reported no error")
	}
}

func TestForEach(t *testing.T) {
	const n = 37
	out := make([]int, n)
	var calls atomic.Int64
	ForEach(5, n, func(i int) {
		out[i] = i * i
		calls.Add(1)
	})
	if calls.Load() != n {
		t.Fatalf("fn called %d times, want %d", calls.Load(), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d]=%d want %d", i, v, i*i)
		}
	}
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
}
