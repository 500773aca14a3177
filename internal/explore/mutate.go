package explore

import (
	"repro/internal/sim"
)

// snapDeltas are the offsets a snap mutation applies after aligning one
// gene's onset to another's: the failure-detector timeout (1s), the
// retransmit/stability period (100ms), half of it, a single NACK delay's
// order (1ms), and exact coincidence. Snapping crash times onto each other
// plus-or-minus these protocol constants is what drives schedules into the
// narrow windows (announcement sent but not yet stable, view change mid
// flush) that uniform-delivery bugs hide in.
var snapDeltas = []sim.Time{
	-sim.Second, -100 * sim.Millisecond, -50 * sim.Millisecond, -sim.Millisecond,
	0, sim.Millisecond, 50 * sim.Millisecond, 100 * sim.Millisecond, sim.Second,
}

// randomGene draws a fresh gene of a random kind with plausible parameters;
// clamping and structural repair happen downstream.
func (s space) randomGene(g *sim.RNG) Gene {
	total := s.total()
	onset := g.UniformDur(sim.Second, s.Horizon)
	gene := Gene{Kind: GeneKind(g.Intn(int(numGeneKinds))), At: onset}
	switch gene.Kind {
	case GeneDrift:
		gene.Rate = 0.01 + 0.09*g.Float64()
		if g.Bool(0.5) {
			gene.Site = int32(1 + g.Intn(total))
		}
	case GeneLatency:
		gene.Dur = g.UniformDur(sim.Millisecond, 8*sim.Millisecond)
	case GeneLoss:
		gene.Rate = 0.01 + 0.09*g.Float64()
		if g.Bool(0.4) {
			gene.Bursty = true
			gene.Factor = 3 + 5*g.Float64()
		}
	case GeneCrash:
		gene.Site = int32(1 + g.Intn(total))
		if s.Rejoin && g.Bool(0.4) {
			gene.Recover = onset + g.UniformDur(5*sim.Second, 20*sim.Second)
		}
	case GenePartition:
		m := 1 + g.Intn(max(1, s.budget()))
		first := int32(1 + g.Intn(total))
		gene.Sites = []int32{first}
		for i := 1; i < m; i++ {
			gene.Sites = append(gene.Sites, first+int32(i))
		}
		if g.Bool(0.75) {
			gene.Until = onset + g.UniformDur(5*sim.Second, 20*sim.Second)
		}
	case GeneSaturation:
		gene.Factor = 1.5 + 1.5*g.Float64()
		if g.Bool(0.5) {
			gene.Until = onset + g.UniformDur(10*sim.Second, 20*sim.Second)
		}
	case GeneSlowNode:
		gene.Site = int32(1 + g.Intn(total))
		gene.Factor = 10
		if g.Bool(0.4) {
			gene.Until = onset + g.UniformDur(10*sim.Second, 20*sim.Second)
		}
	case GeneDuplicate, GeneReorder:
		gene.Rate = 0.02 + 0.1*g.Float64()
		gene.Dur = g.UniformDur(sim.Millisecond, 5*sim.Millisecond)
		if g.Bool(0.4) {
			gene.Until = onset + g.UniformDur(5*sim.Second, 20*sim.Second)
		}
	}
	return gene
}

// mutate returns a structurally repaired copy of the gene list with one
// random edit applied: add, drop, retime, retarget, rerate, or snap (align
// one gene's onset to another's plus a protocol-constant delta). The input
// is never modified.
func (s space) mutate(g *sim.RNG, genes []Gene) []Gene {
	out := make([]Gene, len(genes))
	copy(out, genes)
	op := g.Intn(6)
	if len(out) == 0 {
		op = 0
	}
	switch op {
	case 0: // add
		at := g.Intn(len(out) + 1)
		out = append(out, Gene{})
		copy(out[at+1:], out[at:])
		out[at] = s.randomGene(g)
	case 1: // drop
		at := g.Intn(len(out))
		out = append(out[:at], out[at+1:]...)
	case 2: // retime
		at := g.Intn(len(out))
		gene := out[at]
		gene.At = g.UniformDur(sim.Second, s.Horizon)
		if gene.Until != 0 {
			gene.Until = gene.At + g.UniformDur(sim.Second, 20*sim.Second)
		}
		if gene.Recover != 0 {
			gene.Recover = gene.At + g.UniformDur(5*sim.Second, 20*sim.Second)
		}
		out[at] = gene
	case 3: // retarget
		at := g.Intn(len(out))
		gene := out[at]
		shift := int32(1 + g.Intn(s.total()))
		if gene.Site != 0 {
			gene.Site = wrapSite(gene.Site+shift, s.total())
		}
		if len(gene.Sites) > 0 {
			sites := make([]int32, len(gene.Sites))
			for i, sid := range gene.Sites {
				sites[i] = wrapSite(sid+shift, s.total())
			}
			gene.Sites = sites
		}
		out[at] = gene
	case 4: // rerate
		at := g.Intn(len(out))
		gene := out[at]
		scale := 0.5 + 1.5*g.Float64()
		gene.Rate *= scale
		if gene.Factor != 0 {
			gene.Factor *= scale
		}
		if gene.Dur != 0 {
			gene.Dur = sim.Time(float64(gene.Dur) * scale)
		}
		out[at] = gene
	case 5: // snap
		i := g.Intn(len(out))
		j := g.Intn(len(out))
		gene := out[i]
		delta := snapDeltas[g.Intn(len(snapDeltas))]
		gene.At = out[j].At + delta
		if gene.Recover != 0 && gene.Recover <= gene.At {
			gene.Recover = gene.At + 8*sim.Second
		}
		out[i] = gene
	}
	return s.repair(out)
}

// splice crosses two parents at random cut points and repairs the child.
func (s space) splice(g *sim.RNG, a, b []Gene) []Gene {
	ca := g.Intn(len(a) + 1)
	cb := g.Intn(len(b) + 1)
	child := make([]Gene, 0, ca+len(b)-cb)
	child = append(child, a[:ca]...)
	child = append(child, b[cb:]...)
	return s.repair(child)
}
