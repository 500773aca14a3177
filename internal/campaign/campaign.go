// Package campaign generates randomized fault schedules for dependability
// campaigns. Where cmd/faultsim's fixed matrix replays the paper's nine
// Section 5.3 fault loads, a campaign draws hundreds of adversarial
// schedules — composing clock drift, scheduling latency, random and bursty
// message loss, site crashes, and network partitions with scheduled heal
// times — and checks every run against the internal/check safety condition.
//
// Every schedule is a pure function of its seed: the same seed regenerates
// the same faults.Config and drives the same simulation, so any campaign
// failure is reproducible from the one-line verdict it printed and becomes
// a regression test by pinning that seed.
//
// Schedules are generated quorum-safe by construction: crashed plus
// partitioned sites never reach half of the group, so a primary component
// survives to make progress (gcs wedges, in every run, a member that suspects
// a majority of its view). Partition minorities are drawn from the
// highest-numbered sites so the sequencer (the lowest live member, and the
// only node guaranteed to hold every ordered message) stays on the majority
// side.
package campaign

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/sim"
)

// Fault-kind labels used in schedules and verdict aggregation.
const (
	KindDrift      = "clock-drift"
	KindLatency    = "sched-latency"
	KindLossRandom = "loss-random"
	KindLossBursty = "loss-bursty"
	KindCrash      = "crash"
	KindRejoin     = "crash-rejoin"
	KindPartition  = "partition"
	KindSaturation = "saturation"
	KindSlowNode   = "slow-node"
	// Datagram chaos kinds: receiver-side duplication and reordering of raw
	// datagrams, aimed at the unordered cross-group relay traffic (ordered
	// streams dedupe and resequence on their own).
	KindDuplicate = "dup"
	KindReorder   = "reorder"
	// Group-mode (partial replication) structural kinds: a crash of one
	// group's lowest member (its sequencer, and the handover anchor for
	// cross-group rounds it coordinated), additional crashes scattered
	// across groups, and a partition isolating a minority of one group.
	KindCoordCrash     = "coordinator-crash"
	KindGroupCrash     = "group-crash"
	KindGroupPartition = "group-partition"
)

// Kinds lists every fault kind a campaign can inject, in report order.
func Kinds() []string {
	return []string{KindDrift, KindLatency, KindLossRandom, KindLossBursty,
		KindDuplicate, KindReorder,
		KindCrash, KindRejoin, KindPartition, KindSaturation, KindSlowNode,
		KindCoordCrash, KindGroupCrash, KindGroupPartition}
}

// Params bounds the schedule space.
type Params struct {
	// Sites is the replica count the schedules target (default 3). It
	// bounds the crash/partition budget: injected site failures always
	// leave a strict majority operational.
	Sites int
	// Horizon is the window over which fault onsets are scheduled
	// (default 40s) — late enough that every schedule exercises some
	// fault-free traffic first, early enough that the survivors then run
	// degraded for most of the experiment.
	Horizon sim.Time
	// Rejoin forces every schedule to contain at least one
	// crash-and-rejoin (CI smoke campaigns use it so rejoin safety is
	// exercised on every push). Without it, crashes recover with
	// probability 0.6 each.
	Rejoin bool
	// Overload forces every schedule to contain both overload faults —
	// sustained saturation and a slow-node gray failure — so overload
	// campaigns stress the flow-control and admission machinery on every
	// schedule. Without it, each is drawn with probability 0.25.
	Overload bool
	// Groups targets a partial-replication model: Sites is then the
	// per-group replica count and structural faults are drawn per group —
	// the crash/partition budget is (Sites-1)/2 within each group, so every
	// group keeps a strict majority. Rejoin is ignored (crash recovery is
	// out of the group-mode scope). 0 or 1 generates classic schedules.
	Groups int
}

// WithDefaults returns p with the defaults in place of unset (zero or
// negative) fields: 3 sites, a 40 s horizon.
func (p Params) WithDefaults() Params {
	if p.Sites <= 0 {
		p.Sites = 3
	}
	if p.Horizon <= 0 {
		p.Horizon = 40 * sim.Second
	}
	return p
}

// Schedule is one generated fault load.
type Schedule struct {
	// Seed regenerates the schedule (New(Seed, params) == this) and seeds
	// the run itself.
	Seed int64
	// Kinds lists the injected fault kinds, in report order.
	Kinds []string
	// Faults is the composed fault load.
	Faults faults.Config
}

// Has reports whether the schedule injects the given fault kind.
func (s Schedule) Has(kind string) bool {
	for _, k := range s.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// Label renders a compact schedule description for verdict lines.
func (s Schedule) Label() string {
	if len(s.Kinds) == 0 {
		return "fault-free"
	}
	return strings.Join(s.Kinds, "+")
}

// Describe renders the schedule's fully resolved fault load, one fault per
// line — what `faultsim -list` prints so a campaign can be inspected (and a
// failing seed understood) without running anything.
func (s Schedule) Describe() string {
	var b strings.Builder
	f := s.Faults
	if f.ClockDriftRate != 0 {
		sites := "all sites"
		if len(f.ClockDriftSites) > 0 {
			sites = fmt.Sprintf("sites %v", f.ClockDriftSites)
		}
		fmt.Fprintf(&b, "    clock-drift rate=%.3f (%s)\n", f.ClockDriftRate, sites)
	}
	if f.SchedLatencyMean != 0 {
		fmt.Fprintf(&b, "    sched-latency exp(%v)\n", f.SchedLatencyMean)
	}
	switch f.Loss.Kind {
	case faults.LossRandom:
		fmt.Fprintf(&b, "    loss-random rate=%.3f\n", f.Loss.Rate)
	case faults.LossBursty:
		fmt.Fprintf(&b, "    loss-bursty rate=%.3f burst~%.1f\n", f.Loss.Rate, f.Loss.MeanBurst)
	}
	if f.Duplicate.Active() {
		if f.Duplicate.Until != 0 {
			fmt.Fprintf(&b, "    dup rate=%.3f at %v, until %v\n", f.Duplicate.Rate, f.Duplicate.At, f.Duplicate.Until)
		} else {
			fmt.Fprintf(&b, "    dup rate=%.3f at %v (sustained)\n", f.Duplicate.Rate, f.Duplicate.At)
		}
	}
	if f.Reorder.Active() {
		if f.Reorder.Until != 0 {
			fmt.Fprintf(&b, "    reorder rate=%.3f delay~%v at %v, until %v\n",
				f.Reorder.Rate, f.Reorder.Delay, f.Reorder.At, f.Reorder.Until)
		} else {
			fmt.Fprintf(&b, "    reorder rate=%.3f delay~%v at %v (sustained)\n",
				f.Reorder.Rate, f.Reorder.Delay, f.Reorder.At)
		}
	}
	for _, c := range f.Crashes {
		if rc := f.RecoverOf(c.Site); rc != nil {
			fmt.Fprintf(&b, "    crash site %d at %v, rejoin at %v\n", c.Site, c.At, rc.At)
		} else {
			fmt.Fprintf(&b, "    crash site %d at %v (no rejoin)\n", c.Site, c.At)
		}
	}
	for _, pt := range f.Partitions {
		if pt.Heal != 0 {
			fmt.Fprintf(&b, "    partition sites %v at %v, heal at %v\n", pt.Sites, pt.At, pt.Heal)
		} else {
			fmt.Fprintf(&b, "    partition sites %v at %v (no heal)\n", pt.Sites, pt.At)
		}
	}
	if f.Saturation.Active() {
		if f.Saturation.Until != 0 {
			fmt.Fprintf(&b, "    saturation x%.1f at %v, until %v\n",
				f.Saturation.Factor, f.Saturation.At, f.Saturation.Until)
		} else {
			fmt.Fprintf(&b, "    saturation x%.1f at %v (sustained)\n",
				f.Saturation.Factor, f.Saturation.At)
		}
	}
	for _, sn := range f.SlowNodes {
		if sn.Until != 0 {
			fmt.Fprintf(&b, "    slow-node site %d x%.0f at %v, until %v\n", sn.Site, sn.Factor, sn.At, sn.Until)
		} else {
			fmt.Fprintf(&b, "    slow-node site %d x%.0f at %v (sustained)\n", sn.Site, sn.Factor, sn.At)
		}
	}
	if b.Len() == 0 {
		return "    (fault-free)\n"
	}
	return b.String()
}

// New deterministically generates the schedule for a seed. All randomness
// flows from the seed through a dedicated RNG stream, so equal seeds yield
// equal schedules on every machine. Classic and group-mode schedules draw
// the same fault blocks in the same order; they differ in the site universe,
// in how often the faults the cross-group relays care about are drawn, and in
// the structural (crash/partition) section, which spends a per-group budget.
func New(seed int64, p Params) Schedule {
	p = p.WithDefaults()
	b := builder{g: sim.NewRNG(seed).Fork("campaign"), p: p, s: Schedule{Seed: seed},
		sites: p.Sites, lossRandom: 3, lossBursty: 6, chaos: 0.2}
	if p.Groups > 1 {
		// Relays are raw datagrams recovered only by the coordinator's
		// retransmit timer, and the relay round's idempotence under
		// duplicated or reordered prepares, votes and decides is exactly what
		// datagram chaos exercises — so loss and chaos are drawn oftener.
		b.sites, b.lossRandom, b.lossBursty, b.chaos = p.Groups*p.Sites, 4, 7, 0.3
	}
	b.timing()
	b.loss()
	b.datagramChaos()
	if p.Groups > 1 {
		b.groupStructural()
	} else {
		b.classicStructural()
	}
	b.overload()
	// Never emit a fault-free schedule: a campaign run must stress
	// something. Default to random loss at a mid rate.
	if !b.s.Faults.Any() {
		b.s.Faults.Loss = faults.Loss{Kind: faults.LossRandom, Rate: 0.01 + 0.09*b.g.Float64()}
		b.add(KindLossRandom)
	}
	sortKinds(b.s.Kinds)
	return b.s
}

// builder draws one schedule. sites is the site universe timing and overload
// faults pick from; lossRandom and lossBursty are the cumulative tenths of
// schedules that get random resp. bursty loss; chaos is the probability of
// each datagram-chaos fault.
type builder struct {
	g *sim.RNG
	p Params
	s Schedule

	sites                  int
	lossRandom, lossBursty int
	chaos                  float64
}

func (b *builder) add(kind string) { b.s.Kinds = append(b.s.Kinds, kind) }

// timing draws the timing faults, which compose freely with everything else.
func (b *builder) timing() {
	g, f := b.g, &b.s.Faults
	if g.Bool(0.35) {
		f.ClockDriftRate = 0.01 + 0.09*g.Float64()
		if g.Bool(0.5) {
			f.ClockDriftSites = []int32{int32(1 + g.Intn(b.sites))}
		}
		b.add(KindDrift)
	}
	if g.Bool(0.35) {
		f.SchedLatencyMean = g.UniformDur(1*sim.Millisecond, 8*sim.Millisecond)
		b.add(KindLatency)
	}
}

// loss draws at most one loss model (faults.Config carries a single Loss).
func (b *builder) loss() {
	g, f := b.g, &b.s.Faults
	switch n := g.Intn(10); {
	case n < b.lossRandom:
		f.Loss = faults.Loss{Kind: faults.LossRandom, Rate: 0.01 + 0.09*g.Float64()}
		b.add(KindLossRandom)
	case n < b.lossBursty:
		f.Loss = faults.Loss{
			Kind:      faults.LossBursty,
			Rate:      0.01 + 0.07*g.Float64(),
			MeanBurst: 3 + 5*g.Float64(),
		}
		b.add(KindLossBursty)
	}
}

// datagramChaos draws duplication and reordering, which target the unordered
// relay traffic and never consume quorum budget.
func (b *builder) datagramChaos() {
	g, f := b.g, &b.s.Faults
	if g.Bool(b.chaos) {
		d := faults.Chaos{
			Rate: 0.02 + 0.10*g.Float64(),
			At:   g.UniformDur(2*sim.Second, b.p.Horizon/2),
		}
		if g.Bool(0.4) {
			d.Until = d.At + g.UniformDur(5*sim.Second, 20*sim.Second)
		}
		f.Duplicate = d
		b.add(KindDuplicate)
	}
	if g.Bool(b.chaos) {
		ro := faults.Chaos{
			Rate:  0.02 + 0.10*g.Float64(),
			Delay: g.UniformDur(1*sim.Millisecond, 5*sim.Millisecond),
			At:    g.UniformDur(2*sim.Second, b.p.Horizon/2),
		}
		if g.Bool(0.4) {
			ro.Until = ro.At + g.UniformDur(5*sim.Second, 20*sim.Second)
		}
		f.Reorder = ro
		b.add(KindReorder)
	}
}

// classicStructural draws the single-group crashes and partition, which share
// one quorum budget: crashed + partitioned sites must leave a strict majority
// of the current view at every step. Because views only shrink, keeping a
// strict majority of the *initial* membership alive is sufficient for every
// intermediate view. Partition minorities are the highest-numbered sites;
// crashes draw from the remainder — so the (replacement) sequencer always
// sits in the majority. Forced rejoin reserves one budget slot for the crash
// the schedule must contain.
func (b *builder) classicStructural() {
	g, f, p := b.g, &b.s.Faults, b.p
	remaining := (p.Sites - 1) / 2
	partBudget := remaining
	if p.Rejoin {
		partBudget = remaining - 1
	}
	if partBudget > 0 && g.Bool(0.4) {
		m := 1 + g.Intn(partBudget)
		minority := make([]int32, 0, m)
		for i := 0; i < m; i++ {
			minority = append(minority, int32(p.Sites-i))
		}
		sort.Slice(minority, func(i, j int) bool { return minority[i] < minority[j] })
		at := g.UniformDur(5*sim.Second, p.Horizon)
		pt := faults.Partition{Sites: minority, At: at}
		if g.Bool(0.75) {
			pt.Heal = at + g.UniformDur(5*sim.Second, 20*sim.Second)
		}
		f.Partitions = []faults.Partition{pt}
		remaining -= m
		b.add(KindPartition)
	}
	if remaining > 0 && (g.Bool(0.4) || p.Rejoin) {
		c := 1 + g.Intn(remaining)
		// Candidate crash targets: every site not in a partition
		// minority. Shuffle and take the first c.
		limit := p.Sites
		if len(f.Partitions) > 0 {
			limit = p.Sites - len(f.Partitions[0].Sites)
		}
		candidates := make([]int32, limit)
		for i := range candidates {
			candidates[i] = int32(i + 1)
		}
		g.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		rejoined := false
		for i := 0; i < c; i++ {
			cr := faults.Crash{
				Site: candidates[i],
				At:   g.UniformDur(5*sim.Second, p.Horizon),
			}
			f.Crashes = append(f.Crashes, cr)
			// Crash-and-rejoin: most crashed sites come back after an
			// outage, restoring the full group — the recovery side of
			// the dependability evaluation. The rejoin delay is long
			// enough that the group has certainly excluded the site
			// (failure timeout 1s) and committed past its horizon.
			if g.Bool(0.6) || (p.Rejoin && i == 0) {
				f.Recovers = append(f.Recovers, faults.Recover{
					Site: cr.Site,
					At:   cr.At + g.UniformDur(8*sim.Second, 25*sim.Second),
				})
				rejoined = true
			}
		}
		sort.Slice(f.Crashes, func(i, j int) bool { return f.Crashes[i].At < f.Crashes[j].At })
		sort.Slice(f.Recovers, func(i, j int) bool { return f.Recovers[i].At < f.Recovers[j].At })
		b.add(KindCrash)
		if rejoined {
			b.add(KindRejoin)
		}
	}
}

// overload draws the overload faults, which compose freely with everything
// above: saturation is global (think-time compression at every client) and a
// slow node degrades without crashing, so neither consumes quorum budget.
func (b *builder) overload() {
	g, f, p := b.g, &b.s.Faults, b.p
	if p.Overload || g.Bool(0.25) {
		sat := faults.Saturation{
			Factor: 1.5 + 1.5*g.Float64(),
			At:     g.UniformDur(5*sim.Second, p.Horizon/2),
		}
		if p.Overload {
			sat.Factor = 2 // the issue's canonical 2x offered load
		}
		if g.Bool(0.5) {
			sat.Until = sat.At + g.UniformDur(10*sim.Second, 20*sim.Second)
		}
		f.Saturation = sat
		b.add(KindSaturation)
	}
	if p.Overload || g.Bool(0.25) {
		sn := faults.SlowNode{
			Site:   int32(1 + g.Intn(b.sites)),
			Factor: 10, // the issue's canonical gray failure: x10 degradation
			At:     g.UniformDur(5*sim.Second, p.Horizon/2),
		}
		if g.Bool(0.4) {
			sn.Until = sn.At + g.UniformDur(10*sim.Second, 20*sim.Second)
		}
		f.SlowNodes = []faults.SlowNode{sn}
		b.add(KindSlowNode)
	}
}

// sortKinds orders kind labels by the canonical Kinds() report order.
func sortKinds(kinds []string) {
	rank := make(map[string]int, 6)
	for i, k := range Kinds() {
		rank[k] = i
	}
	sort.Slice(kinds, func(i, j int) bool { return rank[kinds[i]] < rank[kinds[j]] })
}

// Plan generates n schedules with seeds derived from a base seed via the
// same decorrelation expr uses for replications: schedule i is fully
// reproducible as New(DeriveSeed(base, i), p).
func Plan(base int64, n int, p Params) []Schedule {
	out := make([]Schedule, n)
	for i := range out {
		out[i] = New(expr.DeriveSeed(base, i), p)
	}
	return out
}

// Tasks adapts a campaign plan to the expr parallel runner: one task per
// schedule, single replication, the schedule's seed driving the run. The
// base config supplies workload shape (clients, transactions, sites); its
// Sites must match the Params the plan was generated with.
func Tasks(plan []Schedule, base core.Config) []expr.Task {
	tasks := make([]expr.Task, len(plan))
	for i, s := range plan {
		cfg := base
		cfg.Seed = s.Seed
		cfg.Faults = s.Faults
		tasks[i] = expr.Task{
			Label:  fmt.Sprintf("campaign[%d] seed=%d %s", i, s.Seed, s.Label()),
			Config: cfg,
			Reps:   1,
		}
	}
	return tasks
}
