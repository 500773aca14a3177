package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestClassAbortCountsMissingClassAsZero: a class that one replication
// never saw is a zero observation there, so the abort table's Stat for it
// is the statistic of (x, 0) over both replications, and a class no
// replication saw prints as 0.00±0.00.
func TestClassAbortCountsMissingClassAsZero(t *testing.T) {
	a := core.AggregateRuns([]*core.Results{
		{Classes: []core.ClassResult{{Name: "delivery", AbortRatePct: 12.5}, {Name: "neworder", AbortRatePct: 3}}},
		{Classes: []core.ClassResult{{Name: "neworder", AbortRatePct: 4}}},
	})
	statOf := func(vals ...float64) core.Stat {
		var s metrics.Sample
		for _, v := range vals {
			s.Add(v)
		}
		return core.Stat{Mean: s.Mean(), CI95: s.CI95(), N: s.N()}
	}
	for _, c := range []struct {
		class string
		want  core.Stat
	}{
		{"delivery", statOf(12.5, 0)},
		{"neworder", statOf(3, 4)},
		{"stocklevel", statOf(0, 0)},
	} {
		if got := a.Stat(classAbortPct(c.class)); got != c.want {
			t.Errorf("%s: Stat %+v, want %+v", c.class, got, c.want)
		}
	}
	if got := a.Stat(classAbortPct("stocklevel")).String(); got != (core.Stat{}).String() {
		t.Errorf("a class no replication saw prints %q, want %q", got, (core.Stat{}).String())
	}
}
