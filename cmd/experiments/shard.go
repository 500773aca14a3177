package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
)

// shard sweeps the replication-group count at equal per-site resources: G
// groups of 3 sites each, every site with one CPU and the same client share.
// Each group orders and certifies only its own warehouse stripe, so adding
// groups adds certification and ordering capacity; the cross-group commit
// round pays for the transactions that span stripes. The table reports
// aggregate committed throughput, the multi-group share, and — as the wall
// the tentpole removes — a 9-site full-replication row running the same
// offered load through one total order.
func (h *harness) shard() error {
	header("Shard — replication groups vs aggregate committed throughput")
	const perGroup = 3
	const clientsPerSite = 50

	type row struct {
		label  string
		groups int
		sites  int // per group
	}
	rows := []row{
		{"1 group x 3 sites", 1, perGroup},
		{"2 groups x 3 sites", 2, perGroup},
		{"3 groups x 3 sites", 3, perGroup},
		{"1 group x 9 sites (full repl)", 1, 3 * perGroup},
	}

	var tasks []expr.Task
	for _, rw := range rows {
		total := rw.groups * rw.sites
		for _, p := range core.Protocols() {
			tasks = append(tasks, expr.Task{
				Label: fmt.Sprintf("%s/%s", rw.label, p),
				Config: core.Config{
					Sites:       rw.sites,
					Groups:      rw.groups,
					CPUsPerSite: 1,
					Clients:     clientsPerSite * total,
					Protocol:    p,
					// Equal work per site: the transaction budget grows
					// with the site count so every row runs a comparable
					// measurement window.
					TotalTxns: h.txns * total / perGroup,
				},
			})
		}
	}
	pts, err := h.runAll(tasks)
	if err != nil {
		return fmt.Errorf("shard %w", err)
	}

	fmt.Printf("\n%d reps per point, mean±95%%CI; every site has 1 CPU and %d clients.\n",
		h.reps, clientsPerSite)
	fmt.Println("multigroup is the committed share that spanned groups (cross-group commit round).")
	fmt.Printf("\n%-30s %-12s %14s %11s %10s %9s %11s %10s\n",
		"configuration", "protocol", "tpm", "committed", "p95(ms)", "abort%", "multigroup%", "net(KB/s)")
	base := map[core.Protocol]float64{}
	at3 := map[core.Protocol]float64{}
	i := 0
	for _, rw := range rows {
		for _, p := range core.Protocols() {
			a := pts[i].Agg
			t := a.Stat(tpm)
			i++
			fmt.Printf("%-30s %-12s %14s %11.0f %10.1f %9.2f %11.2f %10.0f\n",
				rw.label, p, t, a.Stat(committed).Mean, a.Stat(p95LatMS).Mean,
				a.Stat(abortPct).Mean, a.Stat(multiGroupPct).Mean, a.Stat(netKBps).Mean)
			if rw.groups == 1 && rw.sites == perGroup {
				base[p] = t.Mean
			}
			if rw.groups == 3 {
				at3[p] = t.Mean
			}
		}
		fmt.Println()
	}

	// The partial-replication acceptance bar: three groups must deliver at
	// least twice the single-group committed throughput on the same
	// per-site hardware.
	for _, p := range core.Protocols() {
		speedup := 0.0
		if base[p] > 0 {
			speedup = at3[p] / base[p]
		}
		verdict := "SCALES"
		if speedup < 2 {
			verdict = "FLAT"
		}
		fmt.Printf("%-12s 3 groups vs 1: %.0f tpm vs %.0f tpm = %.2fx -> %s\n",
			p, at3[p], base[p], speedup, verdict)
	}
	return nil
}
