package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// overload sweeps the offered load past saturation and reports how the
// admission-control and flow-control machinery degrades: committed
// throughput must stay near its peak (graceful degradation) instead of
// collapsing, with the overflow surfacing as explicit rejections, bounded
// queue depths, and client retries. A no-admission comparison row at 2x
// shows the machinery is doing the work, not the workload being easy.
func (h *harness) overload() error {
	header("Overload — offered load vs committed throughput (3 sites)")
	g := grid{
		name:      "overload",
		protocols: core.Protocols(),
		cols: []column{
			{head: "offered load", width: -24, verb: "s"}, protocolColumn,
			ci("tpm", 12, tpm), mean("committed", 11, ".0f", committed), mean("p95(ms)", 10, ".1f", p95LatMS),
			mean("rejected", 9, ".0f", rejected), mean("retries", 10, ".0f", retries),
			mean("backlog", 9, ".0f", backlogPeak), mean("queue(KB)", 11, ".1f", queuePeakKB),
		},
		legend: fmt.Sprintf("\n%d reps per point, mean±95%%CI; rejected are explicit admission refusals,\n", h.reps) +
			"retries are client resubmissions, backlog/queue are peak depths (bounded queues).\n",
		group: 1,
	}
	load := func(label string, factor float64, admission *core.AdmissionConfig) {
		cfg := core.Config{Sites: 3, Clients: 300, Admission: admission}
		if factor > 1 {
			cfg.Faults.Saturation = faults.Saturation{Factor: factor, At: 10 * sim.Second}
		}
		g.rows = append(g.rows, row{[]any{label}, cfg})
	}
	for _, f := range []float64{1, 1.5, 2, 3} {
		load(fmt.Sprintf("load x%.1f", f), f, core.DefaultAdmissionConfig())
	}
	load("load x2.0 (no admission)", 2, nil)
	aggs, err := h.table(&g)
	if err != nil {
		return err
	}

	// The graceful-degradation acceptance bar: at 2x saturation, committed
	// throughput holds at least 80% of the sweep's peak (admission rows).
	for pi, p := range g.protocols {
		var peak, at2x float64
		for ri, r := range g.rows {
			if r.cfg.Admission == nil {
				continue
			}
			t := aggs[ri][pi].Stat(tpm).Mean
			peak = max(peak, t)
			if r.cfg.Faults.Saturation.Factor == 2 {
				at2x = t
			}
		}
		pct := 0.0
		if peak > 0 {
			pct = 100 * at2x / peak
		}
		verdict := "GRACEFUL"
		if pct < 80 {
			verdict = "COLLAPSE"
		}
		fmt.Printf("%-12s at 2x saturation: %.0f tpm = %.0f%% of peak %.0f tpm -> %s\n",
			p, at2x, pct, peak, verdict)
	}
	return nil
}
