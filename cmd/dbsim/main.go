// Command dbsim runs a single replicated-database experiment and prints the
// metrics the paper reports: throughput, latency, abort rates per class,
// resource usage and the safety verdict.
//
// Examples:
//
//	dbsim -sites 3 -clients 750 -txns 10000
//	dbsim -sites 3 -clients 750 -loss random -loss-rate 0.05
//	dbsim -sites 3 -clients 300 -crash-site 3 -crash-at 30s
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbsim", flag.ContinueOnError)
	var (
		sites     = fs.Int("sites", 3, "replica count (1 = centralized)")
		cpus      = fs.Int("cpus", 1, "CPUs per site")
		clients   = fs.Int("clients", 500, "total emulated clients")
		txns      = fs.Int("txns", 10000, "total transactions to submit")
		seed      = fs.Int64("seed", 42, "random seed")
		lossKind  = fs.String("loss", "none", "loss model: none|random|bursty")
		lossRate  = fs.Float64("loss-rate", 0.05, "loss fraction")
		lossBurst = fs.Float64("loss-burst", 5, "mean burst length (bursty)")
		drift     = fs.Float64("drift", 0, "clock drift rate (applied to all sites)")
		schedLat  = fs.Duration("sched-latency", 0, "mean scheduling latency fault")
		crashSite = fs.Int("crash-site", 0, "site to crash (0 = none)")
		crashAt   = fs.Duration("crash-at", 30*time.Second, "crash time")
		verbose   = fs.Bool("v", false, "per-site and per-class detail")
		traceFile = fs.String("trace", "", "write a tcpdump-style packet trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	fcfg := faults.Config{ClockDriftRate: *drift, SchedLatencyMean: sim.FromDuration(*schedLat)}
	switch *lossKind {
	case "none":
	case "random":
		fcfg.Loss = faults.Loss{Kind: faults.LossRandom, Rate: *lossRate}
	case "bursty":
		fcfg.Loss = faults.Loss{Kind: faults.LossBursty, Rate: *lossRate, MeanBurst: *lossBurst}
	default:
		return fmt.Errorf("unknown loss model %q", *lossKind)
	}
	if *crashSite > 0 {
		fcfg.Crashes = append(fcfg.Crashes, faults.Crash{Site: int32(*crashSite), At: sim.FromDuration(*crashAt)})
	}

	m, err := core.New(core.Config{
		Sites:       *sites,
		CPUsPerSite: *cpus,
		Clients:     *clients,
		TotalTxns:   *txns,
		Seed:        *seed,
		Faults:      fcfg,
	})
	if err != nil {
		return err
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
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

	fmt.Printf("config: sites=%d cpus=%d clients=%d txns=%d seed=%d\n",
		*sites, *cpus, *clients, *txns, *seed)
	fmt.Printf("simulated %v (%d events)\n", r.Duration, r.Events)
	fmt.Printf("throughput:   %8.0f tpm\n", r.TPM)
	fmt.Printf("latency:      %8.1f ms mean, %.1f ms p95\n", r.MeanLatencyMS, r.P95LatencyMS)
	fmt.Printf("abort rate:   %8.2f %%\n", r.AbortRatePct)
	fmt.Printf("cpu usage:    %8.1f %% (protocol %.2f %%)\n", r.CPUUtilPct, r.CPURealUtilPct)
	fmt.Printf("disk usage:   %8.1f %%\n", r.DiskUtilPct)
	fmt.Printf("network:      %8.1f KB/s\n", r.NetKBps)
	if *sites > 1 {
		fmt.Printf("certification: %7.1f ms mean latency\n", r.CertLat.Mean())
		fmt.Printf("gcs: sent=%d retrans=%d nacks=%d gossips=%d viewchanges=%d blocked=%d\n",
			r.GCS.Sent, r.GCS.Retransmits, r.GCS.Nacks, r.GCS.Gossips, r.GCS.ViewChanges, r.GCS.Blocked)
	}
	if v := r.Verdict(); v != nil {
		fmt.Printf("UNSAFE: %v\n", v)
	} else if *sites > 1 {
		fmt.Printf("safety: all operational sites committed identical sequences\n")
	}
	if *verbose {
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
