package explore

import (
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sim"
)

// MinStats reports a minimization's cost and outcome.
type MinStats struct {
	// Probes is the number of model runs the shrinker spent.
	Probes int
	// From and To are the gene counts before and after.
	From, To int
}

// maxShrinkProbes bounds the field-shrinking phase; structural removal is
// bounded by ddmin itself.
const maxShrinkProbes = 200

// Minimize shrinks a violating schedule to a locally minimal repro: first
// delta-debugging removal of gene chunks, then per-gene parameter shrinking
// (drop recoveries, halve rates, narrow windows, snap onsets to a coarse
// grid), then a final pass that re-verifies single-gene removals until none
// passes — so removing any single fault from the result makes the violation
// disappear. Runs are serial and every probe uses the same seed, so the
// result is a pure function of the inputs.
func Minimize(base core.Config, p campaign.Params, genes []Gene, seed int64) ([]Gene, MinStats) {
	s := spaceOf(p)
	stats := MinStats{From: len(genes)}
	probes := 0
	violates := func(cand []Gene) bool {
		probes++
		res, err := core.Run(s.config(base, cand, seed))
		return err == nil && res.Verdict() != nil
	}

	cur := s.repair(genes)

	// Phase 1: ddmin-style chunk removal, halving the chunk size until
	// single-gene removals stop helping.
	for chunk := max(1, len(cur)/2); chunk >= 1; {
		removed := false
		for i := 0; i+chunk <= len(cur); i++ {
			cand := make([]Gene, 0, len(cur)-chunk)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+chunk:]...)
			cand = s.repair(cand)
			if violates(cand) {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			chunk /= 2
		} else if chunk > len(cur) {
			chunk = max(1, len(cur))
		}
	}

	// Phase 2: per-gene parameter shrinking. Each candidate simplification
	// is kept only if the violation survives it.
	phase1 := probes
	try := func(i int, edit func(*Gene)) bool {
		if probes-phase1 >= maxShrinkProbes {
			return false
		}
		cand := make([]Gene, len(cur))
		copy(cand, cur)
		edit(&cand[i])
		cand = s.repair(cand)
		if violates(cand) {
			cur = cand
			return true
		}
		return false
	}
	for i := 0; i < len(cur); i++ {
		g := cur[i]
		if g.Recover != 0 {
			try(i, func(x *Gene) { x.Recover = 0 })
		}
		if g.Until != 0 {
			// Narrow the window toward the onset.
			try(i, func(x *Gene) { x.Until = x.At + (x.Until-x.At)/2 })
		}
		for g.Rate > 0.02 && try(i, func(x *Gene) { x.Rate /= 2 }) {
			g = cur[i]
		}
		if len(g.Sites) > 1 {
			try(i, func(x *Gene) { x.Sites = x.Sites[:len(x.Sites)-1] })
		}
		// Snap the onset to a coarse grid: seconds first, then the 100ms
		// protocol period.
		for _, grid := range []sim.Time{sim.Second, 100 * sim.Millisecond} {
			try(i, func(x *Gene) { x.At = x.At / grid * grid })
		}
	}

	// Phase 3: local-minimality fixpoint. Field shrinking can re-enable a
	// removal, so retry single-gene drops until none violates.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := make([]Gene, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			cand = s.repair(cand)
			if violates(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}

	stats.Probes = probes
	stats.To = len(cur)
	return cur, stats
}
