package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/metrics"
)

// fig4 reproduces the model validation Q-Q plots (Figure 4): quantiles of
// simulated transaction latency against quantiles of the reference system,
// for read-only and update transactions, with a TPC-C run of 20 clients and
// 5000 transactions. Both sides pool -reps replications, so the compared
// distributions are multi-run empirical distributions.
//
// SUBSTITUTION: the paper's reference is a real PostgreSQL run on the test
// hardware. Without that testbed, the reference here is an independent
// replication of the model (disjoint seed range): the Q-Q plot then
// validates distributional stability the same way — points near the
// diagonal mean the two latency distributions agree.
func (h *harness) fig4() error {
	header("Figure 4 — transaction latency validation (Q-Q)")
	txns := 5000
	if h.fast {
		txns = 1500
	}
	refSeed := h.seed + 1000
	if refSeed == 0 {
		refSeed = 1000 // Seed==0 means "use the base seed" and would alias the reference onto the simulation
	}
	pts, err := h.runAll([]expr.Task{
		{Label: "sim", Config: core.Config{Sites: 1, Clients: 20, TotalTxns: txns}},
		{Label: "ref", Config: core.Config{Sites: 1, Clients: 20, TotalTxns: txns, Seed: refSeed}},
	})
	if err != nil {
		return fmt.Errorf("fig4 %w", err)
	}
	simAgg, refAgg := pts[0].Agg, pts[1].Agg

	show := func(title string, a, b *metrics.Sample) {
		fmt.Printf("\n%s (n=%d vs n=%d over %d reps each), latency in ms:\n", title, a.N(), b.N(), h.reps)
		fmt.Printf("%10s %12s %12s %10s\n", "quantile", "simulation", "reference", "ratio")
		worst := 0.0
		for _, q := range []float64{0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
			x, y := a.Quantile(q), b.Quantile(q)
			ratio := 0.0
			if y != 0 {
				ratio = x / y
			}
			if d := math.Abs(ratio - 1); d > worst && q <= 0.95 {
				worst = d
			}
			fmt.Printf("%10.2f %12.2f %12.2f %10.3f\n", q, x, y, ratio)
		}
		fmt.Printf("max deviation below p95: %.1f%% (points near the diagonal => distributions agree)\n", worst*100)
	}
	show("read-only transactions", simAgg.Pool(latReadOnly), refAgg.Pool(latReadOnly))
	show("update transactions", simAgg.Pool(latUpdate), refAgg.Pool(latUpdate))
	return nil
}
