package main

import (
	"fmt"

	"repro/internal/core"
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
	g := grid{
		name:      "clients",
		protocols: []core.Protocol{core.ProtocolConservative},
		cols: []column{
			{head: "clients", width: 10, verb: "d"},
			ci("tpm", 14, tpm), mean("committed", 11, ".0f", committed),
			{"events", 12, "d", func(a *core.Aggregate) any {
				var events int64
				for _, r := range a.Runs {
					events += r.Events
				}
				return events / int64(a.Reps)
			}},
		},
		legend: fmt.Sprintf("\n3 sites, conservative protocol, admission control on, %d-txn budget per row;\n", h.txns) +
			fmt.Sprintf("%d reps per point, mean±95%%CI; events is kernel events per replication.\n", h.reps),
	}
	for _, pop := range populations {
		g.rows = append(g.rows, row{[]any{pop}, core.Config{
			Sites:            3,
			CPUsPerSite:      1,
			Clients:          pop,
			AggregateClients: 1,
			Admission:        core.DefaultAdmissionConfig(),
		}})
	}
	_, err := h.table(&g)
	return err
}
