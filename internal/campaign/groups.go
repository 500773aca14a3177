package campaign

import (
	"sort"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/xgroup"
)

// groupStructural draws the structural faults of a partial-replication model
// of p.Groups groups × p.Sites sites: per group against a per-group quorum
// budget, so every group keeps a strict majority and the cross-group commit
// round always has a surviving home member to hand rounds over to.
func (b *builder) groupStructural() {
	g, f, p := b.g, &b.s.Faults, b.p
	budget := (p.Sites - 1) / 2 // disabled sites tolerated per group

	// used[g] counts disabled sites of group g; crashed marks sites taken by
	// a crash.
	used := make([]int, p.Groups+1)
	crashed := map[int32]bool{}
	crash := func(site int32, gr int) {
		crashed[site] = true
		used[gr]++
		f.Crashes = append(f.Crashes, faults.Crash{
			Site: site, At: g.UniformDur(5*sim.Second, p.Horizon),
		})
	}

	// Coordinator crash: the lowest-numbered site of one group — the
	// group's sequencer, and the home member whose in-flight cross-group
	// rounds a survivor must take over. Onset is drawn across the horizon,
	// so it statistically lands between a round's votes and its decision.
	if budget > 0 && g.Bool(0.5) {
		gr := 1 + g.Intn(p.Groups)
		lo, _ := xgroup.GroupSites(gr, p.Sites)
		crash(int32(lo), gr)
		b.add(KindCoordCrash)
	}

	// Additional crashes scattered across groups within each group's
	// remaining budget.
	if g.Bool(0.45) {
		any := false
		for gr := 1; gr <= p.Groups; gr++ {
			if used[gr] >= budget || !g.Bool(0.5) {
				continue
			}
			lo, hi := xgroup.GroupSites(gr, p.Sites)
			cands := make([]int32, 0, hi-lo+1)
			for id := lo; id <= hi; id++ {
				if !crashed[int32(id)] {
					cands = append(cands, int32(id))
				}
			}
			if len(cands) == 0 {
				continue
			}
			crash(cands[g.Intn(len(cands))], gr)
			any = true
		}
		if any {
			b.add(KindGroupCrash)
		}
	}
	sort.Slice(f.Crashes, func(i, j int) bool { return f.Crashes[i].At < f.Crashes[j].At })

	// Group partition: isolate a minority of one group that still has
	// budget. Highest-numbered non-crashed members go to the minority side,
	// keeping the group's (replacement) sequencer in the majority.
	if g.Bool(0.4) {
		gr := 1 + g.Intn(p.Groups)
		for i := 0; i < p.Groups && used[gr] >= budget; i++ {
			gr = gr%p.Groups + 1
		}
		if m := budget - used[gr]; m > 0 {
			m = 1 + g.Intn(m)
			lo, hi := xgroup.GroupSites(gr, p.Sites)
			minority := make([]int32, 0, m)
			for id := hi; id >= lo && len(minority) < m; id-- {
				if !crashed[int32(id)] {
					minority = append(minority, int32(id))
				}
			}
			if len(minority) > 0 {
				sort.Slice(minority, func(i, j int) bool { return minority[i] < minority[j] })
				at := g.UniformDur(5*sim.Second, p.Horizon)
				pt := faults.Partition{Sites: minority, At: at}
				if g.Bool(0.75) {
					pt.Heal = at + g.UniformDur(5*sim.Second, 20*sim.Second)
				}
				f.Partitions = []faults.Partition{pt}
				used[gr] += len(minority)
				b.add(KindGroupPartition)
			}
		}
	}
}
