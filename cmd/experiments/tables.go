package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
)

// classOrder is the row order of the paper's Tables 1 and 2.
var classOrder = []struct{ key, label string }{
	{"delivery", "delivery"},
	{"neworder", "neworder"},
	{"payment-long", "payment (long)"},
	{"payment-short", "payment (short)"},
	{"orderstatus-long", "orderstatus (long)"},
	{"orderstatus-short", "orderstatus (short)"},
	{"stocklevel", "stocklevel"},
}

// abortTable runs one task per column and prints the per-class abort rates
// under the task labels.
func (h *harness) abortTable(name string, tasks []expr.Task) error {
	pts, err := h.runAll(tasks)
	if err != nil {
		return fmt.Errorf("%s %w", name, err)
	}
	fmt.Printf("abort rates in %%, mean±95%%CI over %d reps\n", h.reps)
	fmt.Printf("%-20s", "Transaction")
	for _, p := range pts {
		fmt.Printf(" %16s", p.Task.Label)
	}
	fmt.Println()
	pct := func(st core.Stat) string { return fmt.Sprintf("%.2f±%.2f", st.Mean, st.CI95) }
	for _, row := range classOrder {
		fmt.Printf("%-20s", row.label)
		for _, p := range pts {
			fmt.Printf(" %16s", pct(p.Agg.Stat(classAbortPct(row.key))))
		}
		fmt.Println()
	}
	fmt.Printf("%-20s", "All")
	for _, p := range pts {
		fmt.Printf(" %16s", pct(p.Agg.Stat(abortPct)))
	}
	fmt.Println()
	return nil
}

// table1 reproduces the abort-rate breakdown (Table 1): 500 clients on a
// 1-CPU server; 1000 clients on a 3-CPU server versus 3 replicated sites;
// 1500 clients on a 6-CPU server versus 6 replicated sites. The five
// columns run concurrently on the worker pool.
func (h *harness) table1() error {
	header("Table 1 — abort rates (%)")
	type col struct {
		label   string
		clients int
		sites   int
		cpus    int
	}
	cols := []col{
		{"500c 1sx1CPU", 500, 1, 1},
		{"1000c 1sx3CPU", 1000, 1, 3},
		{"1000c 3sx1CPU", 1000, 3, 1},
		{"1500c 1sx6CPU", 1500, 1, 6},
		{"1500c 6sx1CPU", 1500, 6, 1},
	}
	tasks := make([]expr.Task, 0, len(cols))
	for _, c := range cols {
		tasks = append(tasks, expr.Task{Label: c.label, Config: core.Config{
			Sites:       c.sites,
			CPUsPerSite: c.cpus,
			Clients:     c.clients,
		}})
	}
	if err := h.abortTable("table1", tasks); err != nil {
		return err
	}
	fmt.Println("\nshape checks: payment dominates aborts (hot Warehouse rows) and")
	fmt.Println("grows with replication; neworder stays near its 1% user-abort")
	fmt.Println("floor; read-only classes (orderstatus-short, stocklevel) are 0.")
	return nil
}

// table2 reproduces the abort rates under message loss (Table 2): 3 sites,
// 1000 clients, no losses versus 5% random and 5% bursty loss.
func (h *harness) table2() error {
	header("Table 2 — abort rates with 3 sites and 1000 clients (%)")
	cols := []struct {
		label string
		loss  faults.Loss
	}{
		{"No Losses", faults.Loss{}},
		{"Random - 5%", faults.Loss{Kind: faults.LossRandom, Rate: 0.05}},
		{"Bursty - 5%", faults.Loss{Kind: faults.LossBursty, Rate: 0.05, MeanBurst: 5}},
	}
	tasks := make([]expr.Task, 0, len(cols))
	for _, c := range cols {
		tasks = append(tasks, h.faultTask(c.label, 1000, c.loss))
	}
	if err := h.abortTable("table2", tasks); err != nil {
		return err
	}
	fmt.Println("\nshape checks: loss extends certification latency, widening the")
	fmt.Println("conflict window: every update class aborts more, random loss")
	fmt.Println("hurting more than the same rate in bursts.")
	return nil
}
