package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// nominalSeconds is the run length the replication counts below are sized
// for (BENCHMARK.json's run_seconds). -seconds scales the counts in
// proportion, so a run is a fixed amount of work for a given (seed, seconds)
// and its simulated numbers repeat exactly.
const nominalSeconds = 18

// workload is one fixed model configuration. Names are fixed: later issues
// cite them.
type workload struct {
	Name string
	Why  string
	// Reps is the number of timed replications at nominalSeconds.
	Reps   int
	Config func() core.Config
	// Live checks that the mechanism the workload exists to exercise actually
	// ran in a replication, so a workload that silently stops exercising its
	// layer fails instead of "getting faster".
	Live func(r *core.Results) error
}

func lan3(p core.Protocol) core.Config {
	return core.Config{Sites: 3, CPUsPerSite: 1, Clients: 500, TotalTxns: 10000, Protocol: p}
}

var workloads = []workload{
	{
		Name: "lan3_cons",
		Why:  "3 sites, 500 closed-loop clients, conservative, fault-free: the paper's Fig. 5 point, every layer takes a share; the reference row",
		Reps: 36,
		Config: func() core.Config {
			return lan3(core.ProtocolConservative)
		},
		Live: func(r *core.Results) error {
			if r.GCS.Delivered == 0 {
				return fmt.Errorf("no total-order deliveries")
			}
			return nil
		},
	},
	{
		Name: "lan3_opt",
		Why:  "same config, optimistic protocol: tentative+final delivery, SpecCertifier with undo, remote pre-apply; a gain that taxes speculation shows here",
		Reps: 36,
		Config: func() core.Config {
			return lan3(core.ProtocolOptimistic)
		},
		Live: func(r *core.Results) error {
			if r.Tentative == 0 {
				return fmt.Errorf("no tentative certifications")
			}
			return nil
		},
	},
	{
		Name: "groups3_x",
		Why:  "3 groups x 3 sites, 450 clients, ~7% cross-group commits via relay/vote/decide: replica/xgroup and a deep event heap work here only",
		Reps: 24,
		Config: func() core.Config {
			return core.Config{Groups: 3, Sites: 3, CPUsPerSite: 1, Clients: 450, TotalTxns: 10000}
		},
		Live: func(r *core.Results) error {
			if r.MultiGroupCommitted == 0 {
				return fmt.Errorf("no cross-group commits")
			}
			return nil
		},
	},
	{
		Name: "agg1m_shed",
		Why:  "10^6 aggregate clients on 3 sites with admission: ~99.7% refused by design, so tpcc/db admission/retry do the host work and gcs/dbsm almost none",
		Reps: 24,
		Config: func() core.Config {
			return core.Config{Sites: 3, CPUsPerSite: 1, Clients: 1_000_000, AggregateClients: 1,
				Admission: core.DefaultAdmissionConfig(), TotalTxns: 100000}
		},
		Live: func(r *core.Results) error {
			if r.Rejected == 0 || r.GiveUps == 0 {
				return fmt.Errorf("admission idle: rejected=%d giveups=%d", r.Rejected, r.GiveUps)
			}
			return nil
		},
	},
	{
		Name: "lossy_rejoin",
		Why:  "5% random loss, site 3 crashes at 30s and rejoins at 60s: NACK/retransmit, membership, state transfer and the prefix rule are idle elsewhere",
		Reps: 36,
		Config: func() core.Config {
			return core.Config{Sites: 3, CPUsPerSite: 1, Clients: 300,
				Admission: core.DefaultAdmissionConfig(), TotalTxns: 10000,
				Faults: faults.Config{
					Loss:     faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
					Crashes:  []faults.Crash{{Site: 3, At: 30 * sim.Second}},
					Recovers: []faults.Recover{{Site: 3, At: 60 * sim.Second}},
				}}
		},
		Live: func(r *core.Results) error {
			if r.Recoveries != 1 || r.GCS.Retransmits == 0 {
				return fmt.Errorf("fault path idle: recoveries=%d retransmits=%d", r.Recoveries, r.GCS.Retransmits)
			}
			return nil
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// repsFor scales a nominal replication count to the requested run length.
func repsFor(nominal, seconds int) int {
	r := (nominal*seconds + nominalSeconds/2) / nominalSeconds
	if r < 2 {
		r = 2
	}
	return r
}
