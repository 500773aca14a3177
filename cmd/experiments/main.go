// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 4 validation and Section 5 results).
//
// Subcommands:
//
//	fig3    CSRT validation: flood bandwidth and round-trip vs message size
//	fig4    model validation: Q-Q of transaction latency (sim vs reference)
//	fig5    throughput / latency / abort rate vs clients (Figure 5)
//	fig6    resource usage vs clients (Figure 6)
//	table1  abort rate breakdown per class (Table 1)
//	fig7    fault injection: latency distributions and CPU usage (Figure 7)
//	table2  abort rates under message loss (Table 2)
//	protocols  conservative vs optimistic delivery: certification-latency
//	           split, misprediction rate, rollbacks (extension)
//	recovery   terminal crash vs crash-and-rejoin: downtime, recovery
//	           duration, snapshot transfer, delta catch-up (extension)
//	overload   offered-load sweep past saturation: committed throughput,
//	           rejections, retries, queue/backlog peaks — graceful
//	           degradation vs collapse (extension)
//	shard      partial replication: group-count sweep at equal per-site
//	           resources — aggregate throughput, multi-group share, and a
//	           full-replication comparison row (extension)
//	clients    population sweep 10^3..10^6 under the aggregate client tier:
//	           throughput and kernel events against population (extension)
//	all     everything above
//
// Every grid point runs -reps independent replications (derived seeds) and
// is reported as mean ± 95% confidence interval. The (configuration ×
// client count × seed) grid fans out across -parallel workers; runs are
// deterministic and independent, so the aggregates printed on stdout are
// byte-identical whatever the worker count (progress goes to stderr).
//
// Use -fast for a reduced-scale pass (minutes instead of tens of minutes).
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command behind main: tables go to os.Stdout, progress and
// errors to os.Stderr, and the exit status is returned so the golden test
// can drive it in-process.
func run(args []string) int {
	h := &harness{}
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.BoolVar(&h.fast, "fast", false, "reduced scale: fewer transactions and sweep points")
	fs.Int64Var(&h.seed, "seed", 42, "base random seed (replication seeds derive from it)")
	fs.IntVar(&h.txns, "txns", 0, "transactions per run (0 = paper's 10000, or 2000 with -fast)")
	fs.IntVar(&h.reps, "reps", 3, "replications per grid point (mean ± 95% CI)")
	fs.IntVar(&h.parallel, "parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.BoolVar(&h.progress, "progress", true, "report per-run progress on stderr")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] fig3|fig4|fig5|fig6|table1|fig7|table2|protocols|recovery|overload|shard|clients|all")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	if h.reps < 1 {
		h.reps = 1
	}
	if h.txns == 0 {
		h.txns = 10000
		if h.fast {
			h.txns = 2000
		}
	}
	// The subcommands in `all` order; fig5 and fig6 share one cached sweep.
	steps := []struct {
		name string
		run  func() error
	}{
		{"fig3", h.fig3}, {"fig4", h.fig4}, {"fig5", h.fig5}, {"fig6", h.fig6},
		{"table1", h.table1}, {"fig7", h.fig7}, {"table2", h.table2}, {"protocols", h.protocols},
		{"recovery", h.recovery}, {"overload", h.overload}, {"shard", h.shard}, {"clients", h.clients},
	}
	known := false
	for _, s := range steps {
		if fs.Arg(0) != s.name && fs.Arg(0) != "all" {
			continue
		}
		known = true
		if err := s.run(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "experiments: unknown subcommand %q\n", fs.Arg(0))
		return 2
	}
	return 0
}
