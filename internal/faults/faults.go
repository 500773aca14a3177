// Package faults defines the fault loads of Section 5.3. Faults are
// injected by intercepting calls in and out of the centralized simulation
// runtime (clock drift, scheduling latency), by discarding messages at
// reception (random and bursty loss), and by stopping nodes (crash).
package faults

import (
	"repro/internal/sim"
	"repro/internal/simnet"
)

// LossKind selects a message loss model.
type LossKind int

// Loss model kinds.
const (
	LossNone LossKind = iota
	// LossRandom discards each message independently with probability
	// Rate, modeling transmission errors.
	LossRandom
	// LossBursty alternates receive/discard periods with random
	// durations, modeling congestion; the long-run loss fraction is Rate
	// and bursts average MeanBurst messages.
	LossBursty
)

// Loss configures message loss at every receiver.
type Loss struct {
	Kind      LossKind
	Rate      float64
	MeanBurst float64
}

// nominalMsgInterval converts the paper's burst lengths quoted in messages
// into period durations: at the evaluated loads each host receives roughly
// one message every 10ms.
const nominalMsgInterval = 10 * sim.Millisecond

// Active reports whether the loss discards anything: a kind and a rate > 0.
func (l Loss) Active() bool { return l.Kind != LossNone && l.Rate > 0 }

// NewModel builds a fresh (per-host) loss model, or nil when inactive, so an
// inactive loss draws nothing from the host stream the injectors share.
func (l Loss) NewModel() simnet.LossModel {
	if !l.Active() {
		return nil
	}
	switch l.Kind {
	case LossRandom:
		return &simnet.RandomLoss{P: l.Rate}
	case LossBursty:
		mb := l.MeanBurst
		if mb <= 0 {
			mb = 5
		}
		return &simnet.BurstyLoss{Rate: l.Rate, MeanBurst: sim.Time(mb * float64(nominalMsgInterval))}
	default:
		return nil
	}
}

// Crash stops a site at a given instant; the node ceases all interaction.
type Crash struct {
	Site int32
	At   sim.Time
}

// Recover restarts a previously crashed site at a given instant: the node
// comes back with empty volatile state, rejoins the group through the
// recovery join handshake, state-transfers a snapshot from a donor, and
// resumes serving its clients. Each Recover must match an earlier Crash of
// the same site.
type Recover struct {
	Site int32
	At   sim.Time
}

// Partition isolates a set of sites from the rest of the group between two
// instants, modeling a network split (a failed switch uplink). The listed
// sites must form a strict minority so the remainder keeps a primary
// component: the majority side detects the silence, installs a new view,
// and continues, while the minority wedges on quorum loss. The safety
// condition extends the crash rule: a partitioned-minority site's commit
// log must be a prefix of the survivors'.
type Partition struct {
	// Sites is the isolated (minority) side, by site number.
	Sites []int32
	// At is the instant the cut appears.
	At sim.Time
	// Heal is the instant connectivity returns; zero means the partition
	// never heals.
	Heal sim.Time
}

// Saturation raises the offered load above capacity between two instants:
// every client's think time divides by Factor, so the same closed population
// submits as if it were Factor times more eager. This is the overload fault
// the admission-control and flow-control machinery must degrade gracefully
// under — bounded queues, explicit rejections, throughput near peak —
// instead of collapsing.
type Saturation struct {
	// Factor multiplies the offered load; values <= 1 are inert.
	Factor float64
	// At is the instant saturation begins.
	At sim.Time
	// Until is the instant load returns to nominal; zero means the
	// saturation lasts for the rest of the run.
	Until sim.Time
}

// Active reports whether the saturation injects anything.
func (s Saturation) Active() bool { return s.Factor > 1 }

// SlowNode degrades one site into a gray failure between two instants: its
// simulated CPU work, disk service time, and inbound link all slow by
// Factor, while the protocol's real jobs — and with them heartbeats and
// gossip — stay timely, so the failure detector never suspects it. The slow
// site lags but the system must keep committing with zero safety
// violations.
type SlowNode struct {
	// Site is the degraded site number.
	Site int32
	// Factor is the degradation multiplier (the issue's canonical gray
	// failure is x10); values <= 1 are inert.
	Factor float64
	// At is the instant degradation begins.
	At sim.Time
	// Until is the instant the site returns to full speed; zero means it
	// stays degraded for the rest of the run.
	Until sim.Time
}

// Chaos is a receiver-side datagram fault: within the window each inbound
// datagram is independently re-delivered a second time shortly after the
// first, as a flapping route or retransmitting middlebox would
// (Config.Duplicate), or held back long enough for traffic sent later to
// overtake it (Config.Reorder). Ordered streams dedupe by sequence number and
// absorb the delay as ordinary jitter, so both really target the raw-datagram
// relay traffic — the cross-group prepare / vote / decide round must be
// idempotent under them.
type Chaos struct {
	// Rate is the per-datagram probability; 0 disables.
	Rate float64
	// Delay bounds the duplicate's lag or the hold-back (default 2ms).
	Delay sim.Time
	// At is the instant the fault begins.
	At sim.Time
	// Until is the instant it stops; zero means the rest of the run.
	Until sim.Time
}

// Active reports whether the fault injects anything.
func (c Chaos) Active() bool { return c.Rate > 0 }

// NewInjector builds the receiver-side injector, or nil when inactive.
func (c Chaos) NewInjector() *simnet.Injector {
	if !c.Active() {
		return nil
	}
	return &simnet.Injector{Rate: c.Rate, Delay: c.Delay, From: c.At, Until: c.Until}
}

// Config is a complete fault load for one run.
type Config struct {
	// ClockDriftRate postpones scheduled events by the factor (1+rate)
	// and scales measured durations down, per drifting site.
	ClockDriftRate float64
	// ClockDriftSites lists affected sites (empty with a nonzero rate
	// means all sites drift).
	ClockDriftSites []int32
	// SchedLatencyMean adds an exponentially-distributed delay to events
	// scheduled in the future.
	SchedLatencyMean sim.Time
	// SchedLatencySites lists affected sites (empty means all).
	SchedLatencySites []int32
	// Loss applies to every receiver.
	Loss Loss
	// Crashes stop sites at fixed times.
	Crashes []Crash
	// Recovers restart crashed sites at fixed times (crash-and-rejoin).
	Recovers []Recover
	// Partitions cut the network between scheduled instants.
	Partitions []Partition
	// Saturation drives the offered load above capacity.
	Saturation Saturation
	// SlowNodes degrade sites into gray failures.
	SlowNodes []SlowNode
	// Duplicate re-delivers random datagrams at every receiver.
	Duplicate Chaos
	// Reorder delays random datagrams past later traffic at every receiver.
	Reorder Chaos
}

// Any reports whether the configuration injects any fault.
func (c Config) Any() bool {
	return c.ClockDriftRate != 0 || c.SchedLatencyMean != 0 ||
		c.Loss.Active() || len(c.Crashes) > 0 || len(c.Partitions) > 0 ||
		c.Saturation.Active() || len(c.SlowNodes) > 0 ||
		c.Duplicate.Active() || c.Reorder.Active()
}

// RecoverOf returns the recovery scheduled for a site, or nil.
func (c Config) RecoverOf(site int32) *Recover {
	for i := range c.Recovers {
		if c.Recovers[i].Site == site {
			return &c.Recovers[i]
		}
	}
	return nil
}

// DriftsSite reports whether a site's clock drifts under this config.
func (c Config) DriftsSite(site int32) bool {
	if c.ClockDriftRate == 0 {
		return false
	}
	return matchSite(c.ClockDriftSites, site)
}

// DelaysSite reports whether a site suffers scheduling latency.
func (c Config) DelaysSite(site int32) bool {
	if c.SchedLatencyMean == 0 {
		return false
	}
	return matchSite(c.SchedLatencySites, site)
}

func matchSite(list []int32, site int32) bool {
	if len(list) == 0 {
		return true
	}
	for _, s := range list {
		if s == site {
			return true
		}
	}
	return false
}

// SchedLatencyGen returns the delay generator for the scheduling-latency
// fault.
func (c Config) SchedLatencyGen() func(*sim.RNG) sim.Time {
	mean := c.SchedLatencyMean
	return func(g *sim.RNG) sim.Time { return g.ExpDur(mean) }
}
