package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
)

// harness shares configuration and cached sweep results across subcommands.
// All model executions go through the parallel experiment runner
// (internal/expr): every grid point is replicated -reps times with derived
// seeds and reported as mean ± 95% confidence interval.
type harness struct {
	fast     bool
	seed     int64
	txns     int
	reps     int
	parallel int
	progress bool

	sweep [][]*core.Aggregate // cached Figure 5/6 grid, [configuration][client count]
}

// config labels one replication configuration of Figures 5 and 6.
type config struct {
	name  string
	sites int
	cpus  int
}

func (h *harness) configs() []config {
	return []config{
		{"1 CPU", 1, 1},
		{"3 CPU", 1, 3},
		{"6 CPU", 1, 6},
		{"3 Sites", 3, 1},
		{"6 Sites", 6, 1},
	}
}

func (h *harness) clientGrid() []int {
	if h.fast {
		return []int{100, 500, 1000, 1500, 2000}
	}
	return []int{100, 250, 500, 750, 1000, 1250, 1500, 1750, 2000}
}

// runner builds a worker pool from the -parallel/-reps/-progress flags.
// Progress goes to stderr so stdout — the tables themselves — stays
// byte-identical whatever the worker count.
func (h *harness) runner() *expr.Runner {
	rn := &expr.Runner{Workers: h.parallel, Reps: h.reps}
	if h.progress {
		rn.OnRun = func(done, total int, t expr.Task, rep int, r *core.Results, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "\n[%d/%d] %s rep %d: error: %v\n", done, total, t.Label, rep, err)
				return
			}
			fmt.Fprintf(os.Stderr, "\r[%3d/%3d] %-14s rep %d: %s        ",
				done, total, t.Label, rep, r.Summary())
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	return rn
}

// fill applies harness defaults to one task configuration.
func (h *harness) fill(cfg core.Config) core.Config {
	if cfg.TotalTxns == 0 {
		cfg.TotalTxns = h.txns
	}
	if cfg.Seed == 0 {
		cfg.Seed = h.seed
	}
	return cfg
}

// runAll executes a batch of tasks on the pool and fails on any point whose
// replications were not all clean (core.Aggregate.Verdict).
func (h *harness) runAll(tasks []expr.Task) ([]expr.Point, error) {
	for i := range tasks {
		tasks[i].Config = h.fill(tasks[i].Config)
	}
	pts, err := h.runner().Run(tasks)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if v := p.Agg.Verdict(); v != nil {
			return nil, fmt.Errorf("%s: %w", p.Task.Label, v)
		}
	}
	return pts, nil
}

// ensureSweep runs (once) the full client grid over every configuration,
// fanned across the worker pool.
func (h *harness) ensureSweep() error {
	if h.sweep != nil {
		return nil
	}
	cfgs, grid := h.configs(), h.clientGrid()
	var tasks []expr.Task
	for _, cfg := range cfgs {
		for _, clients := range grid {
			tasks = append(tasks, expr.Task{
				Label: fmt.Sprintf("%s/%dc", cfg.name, clients),
				Config: core.Config{
					Sites:       cfg.sites,
					CPUsPerSite: cfg.cpus,
					Clients:     clients,
				},
			})
		}
	}
	pts, err := h.runAll(tasks)
	if err != nil {
		return fmt.Errorf("sweep %w", err)
	}
	h.sweep = make([][]*core.Aggregate, len(cfgs))
	for i, p := range pts {
		h.sweep[i/len(grid)] = append(h.sweep[i/len(grid)], p.Agg)
	}
	return nil
}

// faultTask builds a Figure 7 / Table 2 fault configuration: 3 sites with
// the constrained buffer pool the paper's prototype ran with.
func (h *harness) faultTask(label string, clients int, loss faults.Loss) expr.Task {
	return expr.Task{Label: label, Config: core.Config{
		Sites:          3,
		CPUsPerSite:    1,
		Clients:        clients,
		Faults:         faults.Config{Loss: loss},
		GCSBufferBytes: 96 * 1024,
	}}
}

// header prints a section banner.
func header(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}
