// Regression example: the paper's Section 7 reports that the tool is used
// for automated regression testing — autonomously running a set of realistic
// load and fault scenarios and checking for performance or reliability
// regressions as protocol components evolve.
//
// This program is that harness: a scenario matrix with per-scenario
// invariants (safety, consistency, and minimum-performance floors). It exits
// non-zero if any scenario regresses.
//
// Run with: go run ./examples/regression
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

type scenario struct {
	name    string
	cfg     core.Config
	minTPM  float64 // reliability floor: committed throughput must exceed this
	maxAbrt float64 // abort-rate ceiling (%)
}

func main() {
	scenarios := []scenario{
		{
			name:   "baseline-3-sites",
			cfg:    core.Config{Sites: 3, Clients: 300, TotalTxns: 2000, Seed: 11},
			minTPM: 1500, maxAbrt: 8,
		},
		{
			name: "random-loss-5pct",
			cfg: core.Config{
				Sites: 3, Clients: 300, TotalTxns: 2000, Seed: 12,
				Faults: faults.Config{Loss: faults.Loss{Kind: faults.LossRandom, Rate: 0.05}},
			},
			minTPM: 1500, maxAbrt: 10,
		},
		{
			name: "bursty-loss-5pct",
			cfg: core.Config{
				Sites: 3, Clients: 300, TotalTxns: 2000, Seed: 13,
				Faults: faults.Config{Loss: faults.Loss{Kind: faults.LossBursty, Rate: 0.05, MeanBurst: 5}},
			},
			minTPM: 1500, maxAbrt: 10,
		},
		{
			name: "clock-drift-and-sched-latency",
			cfg: core.Config{
				Sites: 3, Clients: 300, TotalTxns: 2000, Seed: 14,
				Faults: faults.Config{
					ClockDriftRate:    0.02,
					ClockDriftSites:   []int32{2},
					SchedLatencyMean:  time5ms(),
					SchedLatencySites: []int32{3},
				},
			},
			minTPM: 1500, maxAbrt: 10,
		},
		{
			name: "crash-non-sequencer",
			cfg: core.Config{
				Sites: 3, Clients: 300, TotalTxns: 2000, Seed: 15,
				Faults:     faults.Config{Crashes: []faults.Crash{{Site: 2, At: 20 * sim.Second}}},
				MaxSimTime: 15 * sim.Minute,
			},
			minTPM: 800, maxAbrt: 12,
		},
		{
			name: "crash-sequencer",
			cfg: core.Config{
				Sites: 3, Clients: 300, TotalTxns: 2000, Seed: 16,
				Faults:     faults.Config{Crashes: []faults.Crash{{Site: 1, At: 20 * sim.Second}}},
				MaxSimTime: 15 * sim.Minute,
			},
			minTPM: 800, maxAbrt: 12,
		},
	}

	failures := 0
	for _, s := range scenarios {
		start := time.Now()
		verdict := "PASS"
		detail := ""
		m, err := core.New(s.cfg)
		if err != nil {
			verdict, detail = "FAIL", err.Error()
		} else {
			r, err := m.Run()
			if err == nil {
				err = r.Verdict()
			}
			switch {
			case err != nil:
				verdict, detail = "FAIL", err.Error()
			case r.TPM < s.minTPM:
				verdict, detail = "FAIL", fmt.Sprintf("throughput regression: %.0f tpm < %.0f", r.TPM, s.minTPM)
			case r.AbortRatePct > s.maxAbrt:
				verdict, detail = "FAIL", fmt.Sprintf("abort-rate regression: %.2f%% > %.2f%%", r.AbortRatePct, s.maxAbrt)
			default:
				detail = r.Summary()
			}
		}
		if verdict == "FAIL" {
			failures++
		}
		fmt.Printf("%-32s %-4s (%v) %s\n", s.name, verdict, time.Since(start).Round(time.Millisecond), detail)
	}
	if failures > 0 {
		fmt.Printf("\n%d scenario(s) regressed\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall scenarios pass: no performance or reliability regressions")
}

func time5ms() sim.Time { return 5 * sim.Millisecond }
