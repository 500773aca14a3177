package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
)

// column is one column of an extension table: its header, the cell width and
// verb (width 12 with verb ".1f" prints as "%12.1f"; a negative width
// left-aligns), and the value it prints for one grid point. A column with no
// getter is a key column: it prints the row's next key.
type column struct {
	head  string
	width int
	verb  string
	get   func(*core.Aggregate) any
}

// ci is a mean±95%CI column; mean prints the mean alone, at verb's precision.
func ci(head string, width int, get func(*core.Results) float64) column {
	return column{head, width, "s", func(a *core.Aggregate) any { return a.Stat(get) }}
}

func mean(head string, width int, verb string, get func(*core.Results) float64) column {
	return column{head, width, verb, func(a *core.Aggregate) any { return a.Stat(get).Mean }}
}

// protocolColumn names the protocol a line ran under.
var protocolColumn = column{"protocol", -12, "s", func(a *core.Aggregate) any { return a.Runs[0].Protocol }}

// row is one configuration of an extension table: the cells of its key
// columns and the run behind its lines.
type row struct {
	keys []any
	cfg  core.Config
}

// grid is an extension table as data. Every row runs once per protocol and
// prints one line per run; the legend goes between the run and the header
// line, and a blank line follows every group rows (0: none).
type grid struct {
	name      string // the subcommand, prefixed to an error
	protocols []core.Protocol
	cols      []column
	rows      []row
	legend    string
	group     int
}

// table runs the grid on the pool, prints it, and returns the aggregates as
// [row][protocol] for the table's verdict lines.
func (h *harness) table(g *grid) ([][]*core.Aggregate, error) {
	var tasks []expr.Task
	for _, r := range g.rows {
		for _, p := range g.protocols {
			cfg := r.cfg
			cfg.Protocol = p
			tasks = append(tasks, expr.Task{Label: fmt.Sprintf("%v %s", r.keys, p), Config: cfg})
		}
	}
	pts, err := h.runAll(tasks)
	if err != nil {
		return nil, fmt.Errorf("%s %w", g.name, err)
	}
	aggs := make([][]*core.Aggregate, len(g.rows))
	for i, p := range pts {
		aggs[i/len(g.protocols)] = append(aggs[i/len(g.protocols)], p.Agg)
	}

	fmt.Print(g.legend)
	cells := make([]string, len(g.cols))
	for i, c := range g.cols {
		cells[i] = fmt.Sprintf("%*s", c.width, c.head)
	}
	fmt.Printf("\n%s\n", strings.Join(cells, " "))
	for ri, r := range g.rows {
		for _, a := range aggs[ri] {
			keys := r.keys
			for i, c := range g.cols {
				var v any
				if c.get != nil {
					v = c.get(a)
				} else {
					v, keys = keys[0], keys[1:]
				}
				cells[i] = fmt.Sprintf("%*"+c.verb, c.width, v)
			}
			fmt.Println(strings.Join(cells, " "))
		}
		if g.group > 0 && (ri+1)%g.group == 0 {
			fmt.Println()
		}
	}
	return aggs, nil
}
