package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
)

// clients sweeps the emulated population from 10^3 to 10^6 under the
// aggregate client tier (Config.AggregateClients): 3 sites, overload
// protection on, a fixed transaction budget per row. The table holds the
// simulated side of the scaling claim — throughput and kernel events stay
// flat while the population grows a thousandfold; what a population costs
// the host (wall clock, memory) is the bench/ workload agg1m_shed.
func (h *harness) clients() error {
	header("Clients — population sweep under the aggregate client tier")
	populations := []int{1_000, 10_000, 100_000, 1_000_000}
	if h.fast {
		populations = []int{1_000, 10_000, 100_000}
	}

	var tasks []expr.Task
	for _, pop := range populations {
		tasks = append(tasks, expr.Task{
			Label: fmt.Sprintf("%d clients", pop),
			Config: core.Config{
				Sites:            3,
				CPUsPerSite:      1,
				Clients:          pop,
				AggregateClients: 1,
				Admission:        core.DefaultAdmissionConfig(),
			},
		})
	}
	pts, err := h.runAll(tasks)
	if err != nil {
		return fmt.Errorf("clients %w", err)
	}

	fmt.Printf("\n3 sites, conservative protocol, admission control on, %d-txn budget per row;\n", h.txns)
	fmt.Printf("%d reps per point, mean±95%%CI; events is kernel events per replication.\n", h.reps)
	fmt.Printf("\n%10s %14s %11s %12s\n", "clients", "tpm", "committed", "events")
	for i, pop := range populations {
		a := pts[i].Agg
		var events int64
		for _, r := range a.Runs {
			events += r.Events
		}
		fmt.Printf("%10d %14s %11.0f %12d\n",
			pop, a.Stat(tpm), a.Stat(committed).Mean, events/int64(a.Reps))
	}
	return nil
}
