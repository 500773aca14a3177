// Package expr is the parallel experiment engine: it fans a grid of
// independent core.Model runs — (configuration × client count × seed) —
// across a worker pool of GOMAXPROCS goroutines, runs R replications per
// grid point with deterministically derived seeds, and merges each point's
// replications into mean ± 95% confidence-interval aggregates.
//
// Every core.Model run is deterministic and fully independent, so the grid
// is embarrassingly parallel: results depend only on the task list and
// seeds, never on worker count or scheduling, and a -parallel 1 run is
// byte-identical to a multi-worker run. Runs do share storage: when a
// model's Run returns, its RNG sources, kernel slabs, certifier index, the
// buffers waiting on its gcs stacks' free lists, its clients' transactions,
// its servers' latency arrays and lock tables and its replicas' cross-group
// tables go to process-wide shelves, and the next core.New on any worker
// takes them back. They stay independent because that storage is reset
// before reuse — a source reseeded, a slab, table or map emptied, a
// transaction recycled and unbound from its server, a buffer overwritten
// before it is read — not because it is separate.
package expr

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
)

// Task is one grid point: a model configuration replicated Reps times.
type Task struct {
	// Label names the point in progress reports and errors.
	Label string
	// Config is the model configuration; Config.Seed is the base seed from
	// which each replication's seed is derived.
	Config core.Config
	// Reps overrides the runner's replication count when positive.
	Reps int
}

// Point is one completed grid point.
type Point struct {
	Task Task
	// Agg merges the point's replications; nil when Err is set.
	Agg *core.Aggregate
	// Err is the first replication error, annotated with the task label.
	Err error
}

// Runner executes task grids on a worker pool.
type Runner struct {
	// Workers is the pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// Reps is the default replication count per task; <= 0 means 1.
	Reps int
	// OnRun, when set, observes every completed replication. Calls are
	// serialized; done counts completed replications out of total.
	OnRun func(done, total int, task Task, rep int, res *core.Results, err error)
}

// DeriveSeed maps a base seed and replication index to a decorrelated
// per-run seed via a splitmix64 round. Replication 0 keeps the base seed,
// so a single-replication run reproduces the historical single-run numbers.
func DeriveSeed(base int64, rep int) int64 {
	if rep == 0 {
		return base
	}
	z := uint64(base) + uint64(rep)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// reps resolves a task's replication count.
func (rn *Runner) reps(t Task) int {
	r := t.Reps
	if r <= 0 {
		r = rn.Reps
	}
	if r <= 0 {
		r = 1
	}
	return r
}

// workers resolves the pool size.
func (rn *Runner) workers() int {
	if rn.Workers > 0 {
		return rn.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every (task, replication) unit on the pool and aggregates
// each task's replications in replication order. It always returns one
// Point per task, in task order; the error is the first task error in that
// order (later points still carry their own results).
func (rn *Runner) Run(tasks []Task) ([]Point, error) {
	type unit struct{ task, rep int }
	var units []unit
	results := make([][]*core.Results, len(tasks))
	errs := make([][]error, len(tasks))
	for ti, t := range tasks {
		n := rn.reps(t)
		results[ti] = make([]*core.Results, n)
		errs[ti] = make([]error, n)
		for rep := 0; rep < n; rep++ {
			units = append(units, unit{task: ti, rep: rep})
		}
	}

	total := len(units)
	var mu sync.Mutex // guards done and OnRun
	done := 0
	ForEach(rn.workers(), total, func(i int) {
		u := units[i]
		t := tasks[u.task]
		cfg := t.Config
		cfg.Seed = DeriveSeed(t.Config.Seed, u.rep)
		res, err := core.Run(cfg)
		results[u.task][u.rep] = res
		errs[u.task][u.rep] = err
		mu.Lock()
		done++
		if rn.OnRun != nil {
			rn.OnRun(done, total, t, u.rep, res, err)
		}
		mu.Unlock()
	})

	points := make([]Point, len(tasks))
	var firstErr error
	for ti, t := range tasks {
		points[ti].Task = t
		for rep, err := range errs[ti] {
			if err != nil {
				points[ti].Err = fmt.Errorf("%s (rep %d): %w", t.Label, rep, err)
				break
			}
		}
		if points[ti].Err == nil {
			points[ti].Agg = core.AggregateRuns(results[ti])
		} else if firstErr == nil {
			firstErr = points[ti].Err
		}
	}
	return points, firstErr
}

// ForEach runs fn(0..n-1) on a pool of the given size (<= 0 uses
// GOMAXPROCS), blocking until every call returns. Callers index into
// pre-sized slices, so output order stays deterministic regardless of
// scheduling.
func ForEach(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		feed <- i
	}
	close(feed)
	wg.Wait()
}
