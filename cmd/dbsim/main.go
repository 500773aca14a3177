// Command dbsim runs a single replicated-database experiment and prints the
// metrics the paper reports: throughput, latency, abort rates per class,
// resource usage and the safety verdict. The run is a file: a plain
// configuration (configs/*.json) or a saved repro, whose expected verdict is
// ignored.
//
// Examples:
//
//	dbsim -config configs/lan3_cons.json -v
//	dbsim -config configs/lossy_rejoin.json -seed 29
//	dbsim -config configs/smoke.json -trace smoke.trace
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/simnet"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command behind main, returning its exit status: 0 after a
// run, 1 when the run fails, 2 on a usage or run-file error.
func run(args []string) int {
	fs := flag.NewFlagSet("dbsim", flag.ContinueOnError)
	var (
		config    = fs.String("config", "", "run file: a configuration (configs/*.json) or a saved repro")
		seed      = fs.Int64("seed", 0, "random seed, replacing the file's when given")
		verbose   = fs.Bool("v", false, "per-site and per-class detail")
		traceFile = fs.String("trace", "", "write a tcpdump-style packet trace to this file")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2 // the flag package already printed the error and usage
	}
	if *config == "" {
		fmt.Fprintln(os.Stderr, "dbsim: -config is required")
		return 2
	}
	file, err := explore.LoadRepro(*config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbsim:", err)
		return 2
	}
	cfg := file.Config
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.Seed = *seed
		}
	})
	if err := simulate(cfg, *config, *verbose, *traceFile); err != nil {
		fmt.Fprintln(os.Stderr, "dbsim:", err)
		return 1
	}
	return 0
}

// simulate runs cfg and prints its report.
func simulate(cfg core.Config, name string, verbose bool, traceFile string) error {
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		// The paper's SSFNet logs traffic in tcpdump's format so runs
		// can be examined with standard tools (Section 2.1).
		m.Network().SetTracer(func(r simnet.TraceRecord) {
			fmt.Fprintln(w, r.String())
		})
	}
	r, err := m.Run()
	if err != nil {
		return err
	}

	fmt.Printf("config: %s protocol=%s sites=%d groups=%d clients=%d txns=%d seed=%d\n",
		name, r.Protocol, cfg.Sites, cfg.Groups, cfg.Clients, cfg.TotalTxns, cfg.Seed)
	fmt.Printf("simulated %v (%d events)\n", r.Duration, r.Events)
	fmt.Printf("throughput:   %8.0f tpm\n", r.TPM)
	fmt.Printf("latency:      %8.1f ms mean, %.1f ms p95\n", r.MeanLatencyMS, r.P95LatencyMS)
	fmt.Printf("abort rate:   %8.2f %%\n", r.AbortRatePct)
	fmt.Printf("cpu usage:    %8.1f %% (protocol %.2f %%)\n", r.CPUUtilPct, r.CPURealUtilPct)
	fmt.Printf("disk usage:   %8.1f %%\n", r.DiskUtilPct)
	fmt.Printf("network:      %8.1f KB/s\n", r.NetKBps)
	if cfg.Sites > 1 {
		fmt.Printf("certification: %7.1f ms mean latency\n", r.CertLat.Mean())
		fmt.Printf("gcs: sent=%d retrans=%d nacks=%d gossips=%d viewchanges=%d blocked=%d\n",
			r.GCS.Sent, r.GCS.Retransmits, r.GCS.Nacks, r.GCS.Gossips, r.GCS.ViewChanges, r.GCS.Blocked)
	}
	if v := r.Verdict(); v != nil {
		fmt.Printf("UNSAFE: %v\n", v)
	} else if cfg.Sites > 1 {
		fmt.Printf("safety: all operational sites committed identical sequences\n")
	}
	if verbose {
		fmt.Println("\nper class:")
		fmt.Printf("  %-18s %9s %9s %7s %7s %7s %8s %9s\n",
			"class", "submitted", "committed", "w/w", "cert", "user", "abort%", "lat(ms)")
		for _, c := range r.Classes {
			fmt.Printf("  %-18s %9d %9d %7d %7d %7d %8.2f %9.1f\n",
				c.Name, c.Submitted, c.Committed, c.AbortLock, c.AbortCert, c.AbortUser,
				c.AbortRatePct, c.MeanLatencyMS)
		}
		fmt.Println("\nper site:")
		for _, s := range r.Sites {
			status := "up"
			if s.Crashed {
				status = "CRASHED"
			}
			fmt.Printf("  site %d: %s committed=%d aborted=%d remote=%d cpu=%.1f%% disk=%.1f%%\n",
				s.Site, status, s.Committed, s.Aborted, s.RemoteApplied, s.CPUUtilPct, s.DiskUtilPct)
		}
	}
	return nil
}
