// Package explore is the adversarial fault explorer: a coverage-guided
// search over fault schedules, a delta-debugging shrinker, and a saved-repro
// corpus. Schedules are encoded as flat gene lists so they can be mutated,
// spliced, and shrunk structurally; a deterministic repair pass maps any gene
// list onto a fault configuration the model accepts, so every mutation
// yields a runnable schedule. Coverage is a fingerprint of the protocol
// counters a run exercised (view changes, flush abandons, commit retries,
// rollbacks, credit stalls, ...), bucketed by order of magnitude; schedules
// that light up new buckets enter the corpus and seed the next generation.
package explore

import (
	"sort"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/xgroup"
)

// GeneKind enumerates the fault primitives a gene can encode.
type GeneKind uint8

// Gene kinds, one per fault primitive in faults.Config.
const (
	GeneDrift GeneKind = iota
	GeneLatency
	GeneLoss
	GeneCrash
	GenePartition
	GeneSaturation
	GeneSlowNode
	GeneDuplicate
	GeneReorder
	numGeneKinds
)

// Gene is one fault primitive with its full parameter set. Unused fields
// stay zero; repair clamps the used ones into model-legal ranges. The field
// meanings follow the corresponding faults type: Until is the window end
// (a partition's Heal), Dur is the latency mean or the duplicate/reorder
// delay bound, Rate is the probability or drift rate, Factor is the
// saturation/slow-node multiplier (a bursty loss's mean burst length).
type Gene struct {
	Kind    GeneKind `json:"kind"`
	Site    int32    `json:"site,omitempty"`
	Sites   []int32  `json:"sites,omitempty"`
	At      sim.Time `json:"at,omitempty"`
	Until   sim.Time `json:"until,omitempty"`
	Recover sim.Time `json:"recover,omitempty"`
	Rate    float64  `json:"rate,omitempty"`
	Factor  float64  `json:"factor,omitempty"`
	Dur     sim.Time `json:"dur,omitempty"`
	Bursty  bool     `json:"bursty,omitempty"`
}

// space is the genome's view of a campaign's parameters: the topology the
// genes target (Sites per group, Groups) and the onset horizon mutations draw
// times from. A crash may carry a recovery in classic mode, as in a campaign;
// Rejoin makes the search add one to a new crash gene now and then.
// spaceOf builds every space.
type space campaign.Params

// spaceOf fills the campaign's defaults into p.
func spaceOf(p campaign.Params) space {
	s := space(p)
	if s.Sites <= 0 {
		s.Sites = 3
	}
	if s.Groups <= 0 {
		s.Groups = 1
	}
	if s.Horizon <= 0 {
		s.Horizon = 40 * sim.Second
	}
	return s
}

// total is the site-universe size.
func (s space) total() int { return s.Groups * s.Sites }

// budget is the number of disabled sites each group tolerates while keeping
// a strict majority.
func (s space) budget() int { return (s.Sites - 1) / 2 }

func (s space) groupOf(site int32) int {
	if s.Groups <= 1 {
		return 1
	}
	return xgroup.GroupOfSite(int(site), s.Sites)
}

func wrapSite(site int32, total int) int32 {
	m := (int(site) - 1) % total
	if m < 0 {
		m += total
	}
	return int32(m + 1)
}

func clampTime(t, lo, hi sim.Time) sim.Time {
	if t < lo {
		return lo
	}
	if t > hi {
		return hi
	}
	return t
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// clampGene forces one gene's parameters into model-legal, search-sensible
// ranges. Structural consistency across genes (budgets, duplicates) is
// repair's job; this is per-gene only.
func (s space) clampGene(g Gene) Gene {
	total := s.total()
	g.At = clampTime(g.At, sim.Second, s.Horizon)
	if g.Until != 0 {
		g.Until = clampTime(g.Until, g.At+50*sim.Millisecond, g.At+30*sim.Second)
	}
	switch g.Kind {
	case GeneDrift:
		g.Rate = clampF(g.Rate, 0.005, 0.15)
		if g.Site != 0 {
			g.Site = wrapSite(g.Site, total)
		}
	case GeneLatency:
		g.Dur = clampTime(g.Dur, 200*sim.Microsecond, 10*sim.Millisecond)
	case GeneLoss:
		g.Rate = clampF(g.Rate, 0.005, 0.3)
		if g.Bursty {
			g.Factor = clampF(g.Factor, 2, 8)
		}
	case GeneCrash:
		g.Site = wrapSite(g.Site, total)
		if g.Recover != 0 {
			if s.Groups > 1 {
				g.Recover = 0 // crash recovery is out of the group-mode scope
			} else {
				g.Recover = clampTime(g.Recover, g.At+sim.Second, g.At+60*sim.Second)
			}
		}
	case GeneSaturation:
		g.Factor = clampF(g.Factor, 1.2, 4)
	case GeneSlowNode:
		g.Site = wrapSite(g.Site, total)
		g.Factor = clampF(g.Factor, 2, 20)
	case GeneDuplicate, GeneReorder:
		g.Rate = clampF(g.Rate, 0.005, 0.4)
		if g.Dur != 0 {
			g.Dur = clampTime(g.Dur, 500*sim.Microsecond, 10*sim.Millisecond)
		}
	}
	return g
}

// repair normalizes a gene list into one that maps to a model-legal fault
// configuration: genes are visited in order and each is clamped and then
// accepted or dropped when it would break a structural invariant (singleton
// fault already present, crash budget exhausted, partition not a strict
// single-group minority, ...). Repair is deterministic and idempotent, so a
// repaired list re-repairs to itself and the shrinker's single-gene removals
// stay meaningful.
func (s space) repair(genes []Gene) []Gene {
	budget := s.budget()
	out := make([]Gene, 0, len(genes))
	var seen [numGeneKinds]bool
	crashed := map[int32]bool{}
	parted := map[int32]bool{}
	slowed := map[int32]bool{}
	disabled := make([]int, s.Groups+1)
	for _, g := range genes {
		if g.Kind >= numGeneKinds {
			continue
		}
		g = s.clampGene(g)
		switch g.Kind {
		case GeneDrift, GeneLatency, GeneLoss, GeneSaturation, GeneDuplicate, GeneReorder:
			// Singletons: the underlying fault is one global knob.
			if seen[g.Kind] {
				continue
			}
			seen[g.Kind] = true
		case GeneSlowNode:
			if slowed[g.Site] {
				continue
			}
			slowed[g.Site] = true
		case GeneCrash:
			gr := s.groupOf(g.Site)
			if crashed[g.Site] || parted[g.Site] || disabled[gr] >= budget {
				continue
			}
			crashed[g.Site] = true
			disabled[gr]++
		case GenePartition:
			// One cut per schedule (the network supports one active cut;
			// non-overlap bookkeeping is not worth the search value).
			if seen[g.Kind] {
				continue
			}
			sites := normalizePartition(g.Sites, s, crashed, parted)
			gr := -1
			kept := sites[:0]
			for _, sid := range sites {
				if gr == -1 {
					gr = s.groupOf(sid)
				}
				if s.groupOf(sid) != gr {
					continue // isolate within one group only
				}
				if disabled[gr]+len(kept) >= budget {
					break
				}
				kept = append(kept, sid)
			}
			if len(kept) == 0 {
				continue
			}
			g.Sites = kept
			for _, sid := range kept {
				parted[sid] = true
			}
			disabled[gr] += len(kept)
			seen[g.Kind] = true
		}
		out = append(out, g)
	}
	return out
}

// normalizePartition wraps, dedupes, and sorts a partition's site list,
// dropping sites already taken by a crash or an earlier cut.
func normalizePartition(sites []int32, s space, crashed, parted map[int32]bool) []int32 {
	total := s.total()
	uniq := map[int32]bool{}
	out := make([]int32, 0, len(sites))
	for _, sid := range sites {
		sid = wrapSite(sid, total)
		if uniq[sid] || crashed[sid] || parted[sid] {
			continue
		}
		uniq[sid] = true
		out = append(out, sid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// toFaults maps a gene list onto the fault configuration it encodes,
// repairing it first. The result always passes the model's structural
// validation for this space's topology.
func (s space) toFaults(genes []Gene) faults.Config {
	var f faults.Config
	for _, g := range s.repair(genes) {
		switch g.Kind {
		case GeneDrift:
			f.ClockDriftRate = g.Rate
			if g.Site != 0 {
				f.ClockDriftSites = []int32{g.Site}
			}
		case GeneLatency:
			f.SchedLatencyMean = g.Dur
		case GeneLoss:
			if g.Bursty {
				f.Loss = faults.Loss{Kind: faults.LossBursty, Rate: g.Rate, MeanBurst: g.Factor}
			} else {
				f.Loss = faults.Loss{Kind: faults.LossRandom, Rate: g.Rate}
			}
		case GeneCrash:
			f.Crashes = append(f.Crashes, faults.Crash{Site: g.Site, At: g.At})
			if g.Recover != 0 {
				f.Recovers = append(f.Recovers, faults.Recover{Site: g.Site, At: g.Recover})
			}
		case GenePartition:
			pt := faults.Partition{Sites: g.Sites, At: g.At, Heal: g.Until}
			f.Partitions = append(f.Partitions, pt)
		case GeneSaturation:
			f.Saturation = faults.Saturation{Factor: g.Factor, At: g.At, Until: g.Until}
		case GeneSlowNode:
			f.SlowNodes = append(f.SlowNodes, faults.SlowNode{
				Site: g.Site, Factor: g.Factor, At: g.At, Until: g.Until,
			})
		case GeneDuplicate:
			f.Duplicate = faults.Chaos{Rate: g.Rate, Delay: g.Dur, At: g.At, Until: g.Until}
		case GeneReorder:
			f.Reorder = faults.Chaos{Rate: g.Rate, Delay: g.Dur, At: g.At, Until: g.Until}
		}
	}
	sort.Slice(f.Crashes, func(i, j int) bool { return f.Crashes[i].At < f.Crashes[j].At })
	sort.Slice(f.Recovers, func(i, j int) bool { return f.Recovers[i].At < f.Recovers[j].At })
	return f
}

// FromFaults inverts toFaults for configurations produced by the campaign
// generators, so campaign schedules can seed generation zero.
func FromFaults(f faults.Config) []Gene {
	var out []Gene
	if f.ClockDriftRate != 0 {
		g := Gene{Kind: GeneDrift, Rate: f.ClockDriftRate}
		if len(f.ClockDriftSites) > 0 {
			g.Site = f.ClockDriftSites[0]
		}
		out = append(out, g)
	}
	if f.SchedLatencyMean != 0 {
		out = append(out, Gene{Kind: GeneLatency, Dur: f.SchedLatencyMean})
	}
	switch f.Loss.Kind {
	case faults.LossRandom:
		out = append(out, Gene{Kind: GeneLoss, Rate: f.Loss.Rate})
	case faults.LossBursty:
		out = append(out, Gene{Kind: GeneLoss, Rate: f.Loss.Rate, Bursty: true, Factor: f.Loss.MeanBurst})
	}
	for _, cr := range f.Crashes {
		g := Gene{Kind: GeneCrash, Site: cr.Site, At: cr.At}
		if rc := f.RecoverOf(cr.Site); rc != nil {
			g.Recover = rc.At
		}
		out = append(out, g)
	}
	for _, pt := range f.Partitions {
		out = append(out, Gene{
			Kind:  GenePartition,
			Sites: append([]int32(nil), pt.Sites...),
			At:    pt.At,
			Until: pt.Heal,
		})
	}
	if f.Saturation.Active() {
		out = append(out, Gene{
			Kind: GeneSaturation, Factor: f.Saturation.Factor,
			At: f.Saturation.At, Until: f.Saturation.Until,
		})
	}
	for _, sn := range f.SlowNodes {
		out = append(out, Gene{
			Kind: GeneSlowNode, Site: sn.Site, Factor: sn.Factor,
			At: sn.At, Until: sn.Until,
		})
	}
	if f.Duplicate.Active() {
		d := f.Duplicate
		out = append(out, Gene{Kind: GeneDuplicate, Rate: d.Rate, Dur: d.Delay, At: d.At, Until: d.Until})
	}
	if f.Reorder.Active() {
		r := f.Reorder
		out = append(out, Gene{Kind: GeneReorder, Rate: r.Rate, Dur: r.Delay, At: r.At, Until: r.Until})
	}
	return out
}
