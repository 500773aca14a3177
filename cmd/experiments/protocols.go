package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
)

// protocols compares the two DBSM termination variants — conservative
// certification on final total order vs. optimistic certification on
// tentative (spontaneous) delivery — across a client sweep, fault-free and
// under loss. The headline column is the certification-latency split: the
// optimistic variant decides one ordering round earlier (cert-decide), at
// the cost of rollbacks when the orders diverge; the final outcome latency
// (cert-final) is protocol-determined and stays put.
func (h *harness) protocols() error {
	header("Protocol comparison — conservative vs optimistic delivery (3 sites)")
	clients := []int{300, 600, 900}
	if h.fast {
		clients = []int{300, 900}
	}
	g := grid{
		name:      "protocols",
		protocols: core.Protocols(),
		cols: []column{
			{head: "faults", width: -11, verb: "s"}, protocolColumn, {head: "clients", width: 8, verb: "d"},
			ci("tpm", 12, tpm), ci("lat (ms)", 12, meanLatMS), ci("cert-decide", 14, certDecideMS),
			{"cert-final", 14, ".1f", func(a *core.Aggregate) any { return a.Pool(certLat).Mean() }},
			mean("mispred%", 10, ".2f", mispredPct), mean("rollbacks", 10, ".1f", rollbacks),
			mean("recert", 10, ".1f", recertified),
		},
		legend: fmt.Sprintf("\n%d reps per point, mean±95%%CI; cert-decide is commit request -> first verdict,\n", h.reps) +
			"cert-final is commit request -> final outcome (identical for conservative).\n",
		group: len(clients),
	}
	for _, lc := range []struct {
		label string
		loss  faults.Loss
	}{
		{"fault-free", faults.Loss{}},
		{"loss 5%", faults.Loss{Kind: faults.LossRandom, Rate: 0.05}},
	} {
		for _, c := range clients {
			g.rows = append(g.rows, row{[]any{lc.label, c}, core.Config{
				Sites:          3,
				CPUsPerSite:    1,
				Clients:        c,
				Faults:         faults.Config{Loss: lc.loss},
				GCSBufferBytes: 96 * 1024,
			}})
		}
	}
	_, err := h.table(&g)
	return err
}
