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

	"repro/internal/profiles"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command behind main: tables go to os.Stdout, progress and
// errors to os.Stderr, and the exit status is returned so the golden test
// can drive it in-process.
func run(args []string) int {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fast := fs.Bool("fast", false, "reduced scale: fewer transactions and sweep points")
	seed := fs.Int64("seed", 42, "base random seed (replication seeds derive from it)")
	txns := fs.Int("txns", 0, "transactions per run (0 = paper's 10000, or 2000 with -fast)")
	reps := fs.Int("reps", 3, "replications per grid point (mean ± 95% CI)")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", true, "report per-run progress on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
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
	stopProfiles, perr := profiles.Start(*cpuprofile, *memprofile)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", perr)
		return 1
	}
	h := &harness{
		fast:     *fast,
		seed:     *seed,
		txns:     *txns,
		reps:     *reps,
		parallel: *parallel,
		progress: *progress,
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
	var err error
	switch fs.Arg(0) {
	case "fig3":
		err = h.fig3()
	case "fig4":
		err = h.fig4()
	case "fig5":
		err = h.fig5and6(true, false)
	case "fig6":
		err = h.fig5and6(false, true)
	case "table1":
		err = h.table1()
	case "fig7":
		err = h.fig7()
	case "table2":
		err = h.table2()
	case "protocols":
		err = h.protocols()
	case "recovery":
		err = h.recovery()
	case "overload":
		err = h.overload()
	case "shard":
		err = h.shard()
	case "clients":
		err = h.clients()
	case "all":
		steps := []func() error{
			h.fig3, h.fig4,
			func() error { return h.fig5and6(true, true) },
			h.table1, h.fig7, h.table2, h.protocols, h.recovery, h.overload, h.shard, h.clients,
		}
		for _, step := range steps {
			if err = step(); err != nil {
				break
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown subcommand %q\n", fs.Arg(0))
		return 2
	}
	stopProfiles() // flush profiles before any exit path
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return 1
	}
	return 0
}
