package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// recovery measures the availability side of dependability introduced by
// the site lifecycle refactor: a crashed site that stays down (the paper's
// terminal crash model) against one that rejoins by state transfer. The
// table reports committed throughput, the recovered site's outage —
// downtime, the recovery share of it, snapshot volume, delta catch-up —
// and the residual commit lag at the instant the site returned to Up.
func (h *harness) recovery() error {
	header("Crash recovery — terminal crash vs crash-and-rejoin (3 sites)")
	g := grid{
		name:      "recovery",
		protocols: core.Protocols(),
		cols: []column{
			{head: "faultload", width: -17, verb: "s"}, protocolColumn,
			ci("tpm", 12, tpm), mean("committed", 11, ".0f", committed),
			ci("downtime(ms)", 13, downtimeMS), ci("recovery(ms)", 13, recoveryMS),
			ci("transfer(KB)", 12, transferKB), mean("delta", 8, ".1f", deltaApplied),
		},
		legend: fmt.Sprintf("\n%d reps per point, mean±95%%CI; downtime and recovery are per rejoin,\n", h.reps) +
			"transfer is snapshot volume, delta is deliveries replayed at install.\n",
		group: 1,
	}
	for _, r := range []struct {
		label string
		f     faults.Config
	}{
		{"crash only", faults.Config{
			Crashes: []faults.Crash{{Site: 3, At: 15 * sim.Second}},
		}},
		{"crash+rejoin", faults.Config{
			Crashes:  []faults.Crash{{Site: 3, At: 15 * sim.Second}},
			Recovers: []faults.Recover{{Site: 3, At: 30 * sim.Second}},
		}},
		{"seq crash+rejoin", faults.Config{
			Crashes:  []faults.Crash{{Site: 1, At: 15 * sim.Second}},
			Recovers: []faults.Recover{{Site: 1, At: 30 * sim.Second}},
		}},
		{"loss5%+rejoin", faults.Config{
			Loss:     faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
			Crashes:  []faults.Crash{{Site: 3, At: 15 * sim.Second}},
			Recovers: []faults.Recover{{Site: 3, At: 30 * sim.Second}},
		}},
	} {
		g.rows = append(g.rows, row{[]any{r.label}, core.Config{Sites: 3, Clients: 300, Faults: r.f}})
	}
	_, err := h.table(&g)
	return err
}
