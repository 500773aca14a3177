package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
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
	factors := []float64{1, 1.5, 2, 3}
	satAt := 10 * sim.Second

	type row struct {
		label     string
		factor    float64
		admission *core.AdmissionConfig
	}
	var rows []row
	for _, f := range factors {
		rows = append(rows, row{
			label:     fmt.Sprintf("load x%.1f", f),
			factor:    f,
			admission: core.DefaultAdmissionConfig(),
		})
	}
	rows = append(rows, row{label: "load x2.0 (no admission)", factor: 2})

	var tasks []expr.Task
	for _, rw := range rows {
		for _, p := range core.Protocols() {
			fc := faults.Config{}
			if rw.factor > 1 {
				fc.Saturation = faults.Saturation{Factor: rw.factor, At: satAt}
			}
			tasks = append(tasks, expr.Task{
				Label: fmt.Sprintf("%s/%s", rw.label, p),
				Config: core.Config{
					Sites:     3,
					Clients:   300,
					Protocol:  p,
					Faults:    fc,
					Admission: rw.admission,
				},
			})
		}
	}
	pts, err := h.runAll(tasks)
	if err != nil {
		return fmt.Errorf("overload %w", err)
	}

	fmt.Printf("\n%d reps per point, mean±95%%CI; rejected are explicit admission refusals,\n", h.reps)
	fmt.Println("retries are client resubmissions, backlog/queue are peak depths (bounded queues).")
	fmt.Printf("\n%-24s %-12s %12s %11s %10s %9s %10s %9s %11s\n",
		"offered load", "protocol", "tpm", "committed", "p95(ms)", "rejected", "retries", "backlog", "queue(KB)")
	peak := map[core.Protocol]float64{}
	at2x := map[core.Protocol]float64{}
	i := 0
	for _, rw := range rows {
		for _, p := range core.Protocols() {
			a := pts[i].Agg
			t := a.Stat(tpm)
			i++
			fmt.Printf("%-24s %-12s %12s %11.0f %10.1f %9.0f %10.0f %9.0f %11.1f\n",
				rw.label, p, t, a.Stat(committed).Mean, a.Stat(p95LatMS).Mean,
				a.Stat(rejected).Mean, a.Stat(retries).Mean, a.Stat(backlogPeak).Mean, a.Stat(queuePeakKB).Mean)
			if rw.admission != nil {
				if t.Mean > peak[p] {
					peak[p] = t.Mean
				}
				if rw.factor == 2 {
					at2x[p] = t.Mean
				}
			}
		}
		fmt.Println()
	}

	// The graceful-degradation acceptance bar: at 2x saturation, committed
	// throughput holds at least 80% of the sweep's peak.
	for _, p := range core.Protocols() {
		pct := 0.0
		if peak[p] > 0 {
			pct = 100 * at2x[p] / peak[p]
		}
		verdict := "GRACEFUL"
		if pct < 80 {
			verdict = "COLLAPSE"
		}
		fmt.Printf("%-12s at 2x saturation: %.0f tpm = %.0f%% of peak %.0f tpm -> %s\n",
			p, at2x[p], pct, peak[p], verdict)
	}
	return nil
}
