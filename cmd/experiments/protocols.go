package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/gcs"
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
	losses := []struct {
		label string
		loss  faults.Loss
	}{
		{"fault-free", faults.Loss{}},
		{"loss 5%", faults.Loss{Kind: faults.LossRandom, Rate: 0.05}},
	}
	var tasks []expr.Task
	for _, lc := range losses {
		for _, c := range clients {
			for _, p := range core.Protocols() {
				tasks = append(tasks, expr.Task{
					Label: fmt.Sprintf("%s/%s/%dc", p, lc.label, c),
					Config: core.Config{
						Sites:       3,
						CPUsPerSite: 1,
						Clients:     c,
						Protocol:    p,
						Faults:      faults.Config{Loss: lc.loss},
						GCSTweak:    func(g *gcs.Config) { g.BufferBytes = 96 * 1024 },
					},
				})
			}
		}
	}
	pts, err := h.runAll(tasks)
	if err != nil {
		return fmt.Errorf("protocols %w", err)
	}

	fmt.Printf("\n%d reps per point, mean±95%%CI; cert-decide is commit request -> first verdict,\n", h.reps)
	fmt.Println("cert-final is commit request -> final outcome (identical for conservative).")
	fmt.Printf("\n%-11s %-12s %8s %12s %12s %14s %14s %10s %10s %10s\n",
		"faults", "protocol", "clients", "tpm", "lat (ms)",
		"cert-decide", "cert-final", "mispred%", "rollbacks", "recert")
	i := 0
	for _, lc := range losses {
		for _, c := range clients {
			for _, p := range core.Protocols() {
				a := pts[i].Agg
				i++
				fmt.Printf("%-11s %-12s %8d %12s %12s %14s %14s %10.2f %10.1f %10.1f\n",
					lc.label, p, c,
					a.Stat(tpm), a.Stat(meanLatMS),
					a.Stat(certDecideMS),
					fmt.Sprintf("%.1f", a.Pool(certLat).Mean()),
					a.Stat(mispredPct).Mean,
					a.Stat(rollbacks).Mean, a.Stat(recertified).Mean)
			}
		}
		fmt.Println()
	}
	return nil
}
