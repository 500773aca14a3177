package main

import (
	"fmt"

	"repro/internal/core"
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
	g := grid{
		name:      "shard",
		protocols: core.Protocols(),
		cols: []column{
			{head: "configuration", width: -30, verb: "s"}, protocolColumn,
			ci("tpm", 14, tpm), mean("committed", 11, ".0f", committed), mean("p95(ms)", 10, ".1f", p95LatMS),
			mean("abort%", 9, ".2f", abortPct), mean("multigroup%", 11, ".2f", multiGroupPct),
			mean("net(KB/s)", 10, ".0f", netKBps),
		},
		legend: fmt.Sprintf("\n%d reps per point, mean±95%%CI; every site has 1 CPU and %d clients.\n", h.reps, clientsPerSite) +
			"multigroup is the committed share that spanned groups (cross-group commit round).\n",
		group: 1,
	}
	for _, r := range []struct {
		label  string
		groups int
		sites  int // per group
	}{
		{"1 group x 3 sites", 1, perGroup},
		{"2 groups x 3 sites", 2, perGroup},
		{"3 groups x 3 sites", 3, perGroup},
		{"1 group x 9 sites (full repl)", 1, 3 * perGroup},
	} {
		total := r.groups * r.sites
		g.rows = append(g.rows, row{[]any{r.label}, core.Config{
			Sites:       r.sites,
			Groups:      r.groups,
			CPUsPerSite: 1,
			Clients:     clientsPerSite * total,
			// Equal work per site: the transaction budget grows with the
			// site count so every row runs a comparable measurement window.
			TotalTxns: h.txns * total / perGroup,
		}})
	}
	aggs, err := h.table(&g)
	if err != nil {
		return err
	}

	// The partial-replication acceptance bar: three groups (row 2) must
	// deliver at least twice the single-group (row 0) committed throughput
	// on the same per-site hardware.
	for pi, p := range g.protocols {
		base, at3 := aggs[0][pi].Stat(tpm).Mean, aggs[2][pi].Stat(tpm).Mean
		speedup := 0.0
		if base > 0 {
			speedup = at3 / base
		}
		verdict := "SCALES"
		if speedup < 2 {
			verdict = "FLAT"
		}
		fmt.Printf("%-12s 3 groups vs 1: %.0f tpm vs %.0f tpm = %.2fx -> %s\n",
			p, at3, base, speedup, verdict)
	}
	return nil
}
