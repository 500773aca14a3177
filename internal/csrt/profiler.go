// Package csrt implements the centralized simulation runtime (CSRT) of the
// paper's Section 2: real protocol code executes under control of the
// discrete-event kernel, its CPU cost is folded back into the simulated time
// line, and simulated CPUs arbitrate between simulated jobs (transaction
// processing) and real jobs (protocol work), with real jobs taking priority.
//
// One substitution: the paper times real code with virtualised hardware cycle
// counters, stopped whenever the code re-enters the runtime; this
// reproduction charges a cost the code declares (runtimeapi.Runtime.Charge),
// so a seed is a run and runtime overhead has nothing to pollute.
package csrt

import "repro/internal/sim"

// ModelProfiler accumulates the declared CPU cost of the running real job.
// The zero value is ready to use.
type ModelProfiler struct {
	acc sim.Time
}

// Begin starts a new job at zero cost.
func (p *ModelProfiler) Begin() { p.acc = 0 }

// Charge adds declared cost to the running job; a negative cost is ignored.
func (p *ModelProfiler) Charge(c sim.Time) {
	if c > 0 {
		p.acc += c
	}
}

// Elapsed reports the cost accumulated by the running job so far.
func (p *ModelProfiler) Elapsed() sim.Time { return p.acc }

// End finishes the job and returns its total cost.
func (p *ModelProfiler) End() sim.Time {
	c := p.acc
	p.acc = 0
	return c
}
