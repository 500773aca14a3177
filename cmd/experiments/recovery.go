package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
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
	rows := []struct {
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
	}
	var tasks []expr.Task
	for _, row := range rows {
		for _, p := range core.Protocols() {
			tasks = append(tasks, expr.Task{
				Label: fmt.Sprintf("%s/%s", row.label, p),
				Config: core.Config{
					Sites:    3,
					Clients:  300,
					Protocol: p,
					Faults:   row.f,
				},
			})
		}
	}
	pts, err := h.runAll(tasks)
	if err != nil {
		return fmt.Errorf("recovery %w", err)
	}

	fmt.Printf("\n%d reps per point, mean±95%%CI; downtime and recovery are per rejoin,\n", h.reps)
	fmt.Println("transfer is snapshot volume, delta is deliveries replayed at install.")
	fmt.Printf("\n%-17s %-12s %12s %11s %13s %13s %12s %8s\n",
		"faultload", "protocol", "tpm", "committed", "downtime(ms)", "recovery(ms)", "transfer(KB)", "delta")
	i := 0
	for _, row := range rows {
		for _, p := range core.Protocols() {
			a := pts[i].Agg
			i++
			fmt.Printf("%-17s %-12s %12s %11.0f %13s %13s %12s %8.1f\n",
				row.label, p, a.Stat(tpm), a.Stat(committed).Mean,
				a.Stat(downtimeMS), a.Stat(recoveryMS),
				a.Stat(transferKB), a.Stat(deltaApplied).Mean)
		}
		fmt.Println()
	}
	return nil
}
