package main

import (
	"fmt"

	"repro/internal/core"
)

// series prints one panel of Figures 5 and 6 from the cached sweep
// (ensureSweep): a line per client count, a column per configuration of the
// paper — 1/3/6-CPU centralized servers and 3/6-site replicated databases,
// the centralized ones dashed out when skipCentral — every cell the mean ±
// 95% CI over -reps replications.
func (h *harness) series(title, unit string, get func(*core.Results) float64, skipCentral bool) {
	cfgs := h.configs()
	fmt.Printf("\n%s (%s, mean±95%%CI over %d reps):\n%8s", title, unit, h.reps, "clients")
	for _, c := range cfgs {
		fmt.Printf(" %14s", c.name)
	}
	fmt.Println()
	for ni, n := range h.clientGrid() {
		fmt.Printf("%8d", n)
		for ci, c := range cfgs {
			if skipCentral && c.sites == 1 {
				fmt.Printf(" %14s", "-")
				continue
			}
			fmt.Printf(" %14s", h.sweep[ci][ni].Stat(get))
		}
		fmt.Println()
	}
}

// fig5 prints the performance series (Figure 5): throughput, latency, abort
// rate.
func (h *harness) fig5() error {
	if err := h.ensureSweep(); err != nil {
		return err
	}
	header("Figure 5 — performance")
	h.series("(a) Throughput", "committed tpm", tpm, false)
	h.series("(b) Latency", "ms, mean of committed", meanLatMS, false)
	h.series("(c) Abort rate", "%", abortPct, false)
	fmt.Println("\nshape checks: 1 CPU saturates near 500 clients (~3000 tpm);")
	fmt.Println("3 sites track the 3-CPU server and 6 sites the 6-CPU server;")
	fmt.Println("abort rate explodes only for the saturated 1-CPU configuration.")
	return nil
}

// fig6 prints the resource usage series (Figure 6): CPU, disk bandwidth,
// network.
func (h *harness) fig6() error {
	if err := h.ensureSweep(); err != nil {
		return err
	}
	header("Figure 6 — resource usage")
	h.series("(a) CPU usage", "%", cpuPct, false)
	h.series("(b) Disk bandwidth usage", "%", diskPct, false)
	h.series("(c) Network traffic", "KB/s", netKBps, true)
	fmt.Println("\nshape checks: with 6 CPUs the disk, not the CPU, becomes the")
	fmt.Println("bottleneck (read one/write all); network grows linearly with")
	fmt.Println("clients and is slightly higher for 6 sites (group maintenance).")
	return nil
}
