// Package core assembles the complete testing tool of the paper: real
// implementations of the replication protocols (internal/gcs,
// internal/dbsm) running under the centralized simulation runtime
// (internal/csrt) against simulated network (internal/simnet), database
// engine (internal/db) and TPC-C traffic generator (internal/tpcc)
// components, with fault injection (internal/faults) and global observation.
//
// A Model is configured, run, and produces Results containing every metric
// the paper reports: throughput (tpm), latency distributions, abort-rate
// breakdowns per transaction class, per-resource utilization, network
// traffic, certification latency, and the off-line safety verdict.
package core

import (
	"fmt"
	"sort"

	"repro/internal/check"
	"repro/internal/csrt"
	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/faults"
	"repro/internal/gcs"
	"repro/internal/recovery"
	"repro/internal/replica"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tpcc"
	"repro/internal/trace"
	"repro/internal/xgroup"
)

// Protocol selects the replication termination variant.
type Protocol string

// The two DBSM protocol variants the tool evaluates.
const (
	// ProtocolConservative certifies on final (total-order) delivery
	// only — the paper's baseline protocol.
	ProtocolConservative Protocol = "conservative"
	// ProtocolOptimistic certifies on tentative (spontaneous-order)
	// delivery, one ordering round early, and pre-applies remote
	// write-sets; final delivery confirms the speculation or rolls it
	// back — the optimistic atomic broadcast variant the paper lists as
	// ongoing work (Section 7, [25]).
	ProtocolOptimistic Protocol = "optimistic"
)

// Protocols lists the selectable variants in report order.
func Protocols() []Protocol { return []Protocol{ProtocolConservative, ProtocolOptimistic} }

// Config describes one experiment run.
type Config struct {
	// Sites is the number of replicas; 1 runs the centralized baseline
	// without any replication protocol. When Groups > 1, Sites is the
	// number of replicas per group and the model runs Groups×Sites sites
	// in total.
	Sites int
	// Groups partitions the replicas into this many independent
	// replication groups (partial replication). Each group runs its own
	// group-communication stack and certifies only its own warehouses'
	// transactions; a transaction spanning groups runs the cross-group
	// atomic-commit round (internal/replica, xcommit.go). 0 or 1 runs the
	// classic single-group model. Incompatible with DedicatedSequencer,
	// ReplicationDegree, ReadSetThreshold, and crash recovery
	// (Faults.Recovers); requires Sites >= 2 per group.
	Groups int
	// Protocol selects the termination variant (default conservative).
	// Ignored when Sites == 1 (no replication protocol runs at all).
	Protocol Protocol
	// CPUsPerSite configures each site's processor count.
	CPUsPerSite int
	// Clients is the total emulated user count, split equally between
	// sites in contiguous blocks (preserving warehouse locality).
	Clients int
	// TotalTxns bounds the run: clients stop issuing after this many
	// submissions (the paper uses 10000).
	TotalTxns int
	// AggregateClients is the population threshold at or above which the
	// per-client objects are replaced by the aggregate client tier
	// (internal/tpcc): one calibrated per-site, per-class arrival process
	// submitting through the identical admission/retry/backpressure path.
	// Memory and startup cost become O(sites + in-flight) instead of
	// O(population), making 10^6+ client runs cheap. 0 disables (always
	// individual clients). Aggregate runs are statistically — not
	// per-seed — equivalent to individual-client runs; equivalence is
	// pinned within CI95 at 500 clients by the core tests.
	AggregateClients int
	// Seed drives every random stream; same seed, same run.
	Seed int64
	// Warehouses overrides the database scale (0 derives clients/10).
	Warehouses int
	// Calibration is the workload cost model (nil for default).
	Calibration *tpcc.Calibration
	// Storage configures each site's disk.
	Storage db.StorageConfig
	// LAN configures the network segment (zero value for the paper's
	// Ethernet-100).
	LAN simnet.LANConfig
	// Costs are the CSRT's four message-overhead parameters (zero for
	// calibrated defaults).
	Costs csrt.CostParams
	// GCSTweak adjusts the group communication configuration (buffer
	// pool, windows, timeouts) before stacks are built.
	GCSTweak func(*gcs.Config)
	// Faults is the fault load.
	Faults faults.Config
	// Hooks are test-only protocol switches (see Hooks); the zero value —
	// every hook off — is the only production configuration.
	Hooks Hooks
	// ReadSetThreshold upgrades large read-sets to table locks.
	ReadSetThreshold int
	// Admission enables the overload-protection machinery: a per-site
	// active-transaction cap, replica backlog watermarks that gate
	// admission, and client retry with exponential backoff after explicit
	// rejections. Nil runs without admission control (rejections never
	// happen and overload degrades the old way, by thrashing).
	Admission *AdmissionConfig
	// DedicatedSequencer adds a group member (node 0) that orders
	// messages but hosts no database and originates no application
	// traffic — the paper's Section 5.3 mitigation for sequencer
	// buffer-share exhaustion. Only meaningful when Sites > 1.
	DedicatedSequencer bool
	// ReplicationDegree stores each warehouse at this many sites instead
	// of all of them (partial replication, Section 5.2's disk-bottleneck
	// mitigation). 0 or >= Sites means full replication. Clients are
	// then routed to their home warehouse's primary site.
	ReplicationDegree int
	// UseWallProfiler measures real protocol code with the wall clock
	// instead of the deterministic cost model (non-reproducible runs).
	UseWallProfiler bool
	// MaxSimTime bounds simulated time (default 2h).
	MaxSimTime sim.Time
	// DrainTime runs the model beyond the last completion so protocol
	// activity quiesces before the safety check (default 2s).
	DrainTime sim.Time
	// CollectTxnLog records every transaction in Results.TxnLog.
	CollectTxnLog bool
}

// Hooks re-open fixed protocol holes for the adversarial explorer's
// self-tests and saved repros: a repro of a historical bug keeps reproducing
// its violation on a healthy tree by naming the hook that resurrects it.
// Hooks are serializable (unlike GCSTweak) so repro JSON can carry them.
// Never set any hook outside tests and saved repros.
type Hooks struct {
	// NonUniformSequencer reverts the uniform sequencer delivery fix: the
	// sequencer delivers its self-assigned messages without waiting for a
	// majority to hold the assignment, resurrecting the lost-announcement
	// safety hole (see internal/gcs/totalorder.go).
	NonUniformSequencer bool `json:"nonUniformSequencer,omitempty"`
}

// Any reports whether any hook is set.
func (h Hooks) Any() bool { return h.NonUniformSequencer }

// AdmissionConfig tunes the overload-protection machinery.
type AdmissionConfig struct {
	// MaxActivePerSite caps concurrently-active transactions per server; a
	// Submit that would exceed it is rejected outright. 0 disables the cap.
	MaxActivePerSite int
	// BacklogHigh and BacklogLow are the replica termination-backlog
	// watermarks: admission closes when the backlog reaches BacklogHigh and
	// reopens when it drains to BacklogLow (hysteresis — the gate never
	// oscillates under constant load). BacklogHigh 0 disables the gate.
	BacklogHigh int
	BacklogLow  int
	// Retry governs client resubmission after rejections; the zero value
	// makes every rejection final.
	Retry tpcc.RetryPolicy
}

// DefaultAdmissionConfig returns the tuning the fault campaigns run with:
// 64 active transactions per site, backlog watermarks 96/32, and up to 4
// attempts with 50ms-to-2s exponential backoff.
func DefaultAdmissionConfig() *AdmissionConfig {
	return &AdmissionConfig{
		MaxActivePerSite: 64,
		BacklogHigh:      96,
		BacklogLow:       32,
		Retry: tpcc.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: 50 * sim.Millisecond,
			MaxBackoff:  2 * sim.Second,
		},
	}
}

func (c *Config) fill() {
	if c.Sites == 0 {
		c.Sites = 1
	}
	if c.Protocol == "" {
		c.Protocol = ProtocolConservative
	}
	if c.CPUsPerSite == 0 {
		c.CPUsPerSite = 1
	}
	if c.Clients == 0 {
		c.Clients = 100
	}
	if c.TotalTxns == 0 {
		c.TotalTxns = 10000
	}
	if c.Calibration == nil {
		c.Calibration = tpcc.DefaultCalibration()
	}
	if c.LAN.BandwidthBps == 0 && c.LAN.MTU == 0 {
		c.LAN = simnet.DefaultLANConfig("lan0")
	}
	if c.Costs == (csrt.CostParams{}) {
		c.Costs = csrt.DefaultCostParams()
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = 2 * sim.Hour
	}
	if c.DrainTime == 0 {
		c.DrainTime = 2 * sim.Second
	}
}

// Site is one replica's assembled components. Across a crash-and-rejoin the
// Site persists while Stack and Replica are rebuilt (a crash destroys all
// volatile protocol state); Life tracks the lifecycle — Up → Crashed →
// Recovering → Up — and the availability metrics of each transition.
type Site struct {
	ID      dbsm.SiteID
	RT      *csrt.Runtime
	CPUs    *csrt.CPUSet
	Server  *db.Server
	Stack   *gcs.Stack       // nil when Sites == 1
	Replica *replica.Replica // nil when Sites == 1
	Host    *simnet.Host
	Gen     *tpcc.Generator
	Life    *recovery.Lifecycle

	partitioned bool // isolated in a partition minority at some point

	// Counters of dead incarnations, folded into the site totals when the
	// current Stack/Replica are replaced at recovery.
	deadGCS     gcs.Stats
	deadReplica replica.Stats
}

// Lifecycle exposes the site's state machine.
func (s *Site) Lifecycle() *recovery.Lifecycle { return s.Life }

// operational reports whether the site participates in the protocol right
// now: lifecycle Up, never isolated in a partition minority, and its stack
// not wedged (a stack halts on exclusion from the view or on quorum loss
// under the primary-component rule — e.g. a loss-induced false suspicion).
// Non-operational sites are held to the prefix safety condition and
// excluded from quiescence accounting; a recovered site is operational
// again and held to full equality.
func (s *Site) operational() bool {
	if s.Life.State() != recovery.StateUp || s.partitioned {
		return false
	}
	return s.Stack == nil || !s.Stack.Stopped()
}

// Model is a configured instance of the testing tool.
type Model struct {
	cfg     Config
	k       *sim.Kernel
	rng     *sim.RNG
	net     *simnet.Network
	lan     *simnet.LAN
	members []runtimeapi.NodeID // full group universe (rebuilt stacks need it)

	// Group-mode shape: groups is 1 for the classic model; perGroup is the
	// per-group site count (== cfg.Sites in either mode).
	groups   int
	perGroup int

	sites     []*Site
	dedicated *Site // dedicated sequencer member, when configured
	clients   []*tpcc.Client
	// aggs replaces clients above the AggregateClients threshold: one
	// compound arrival process per site with a nonzero population.
	aggs []*tpcc.Aggregate

	issued   int
	finished int64
	lastDone sim.Time
	txnLog   trace.TxnLog

	// pendingRecover marks crashed sites whose scheduled recovery has not
	// fired yet: the run must not quiesce before it does, or a
	// crash-and-rejoin schedule would silently skip the rejoin under test.
	pendingRecover map[*Site]bool

	// rejoinViolations counts install-time prefix-check failures: a dead
	// incarnation's commit log that was not a prefix of its donor's.
	rejoinViolations int64
	rejoinViolation  error
}

// New builds a model from a config.
func New(cfg Config) (*Model, error) {
	cfg.fill()
	groups := cfg.Groups
	if groups < 1 {
		groups = 1
	}
	total := cfg.Sites * groups
	if cfg.Sites < 1 || total > 32 {
		return nil, fmt.Errorf("core: unsupported site count %d (%d groups of %d)", total, groups, cfg.Sites)
	}
	if cfg.Protocol != ProtocolConservative && cfg.Protocol != ProtocolOptimistic {
		return nil, fmt.Errorf("core: unknown protocol %q", cfg.Protocol)
	}
	if groups > 1 {
		// The cross-group commit path composes with the plain per-group
		// protocol only; the orthogonal single-group features stay out of
		// scope and are rejected rather than silently ignored.
		switch {
		case cfg.Sites < 2:
			return nil, fmt.Errorf("core: groups need at least 2 sites each, got %d", cfg.Sites)
		case cfg.DedicatedSequencer:
			return nil, fmt.Errorf("core: dedicated sequencer is incompatible with %d groups", groups)
		case cfg.ReplicationDegree > 0:
			return nil, fmt.Errorf("core: replication degree is incompatible with %d groups", groups)
		case cfg.ReadSetThreshold > 0:
			return nil, fmt.Errorf("core: table-lock upgrade is incompatible with %d groups", groups)
		case len(cfg.Faults.Recovers) > 0:
			return nil, fmt.Errorf("core: crash recovery is incompatible with %d groups", groups)
		}
	}
	m := &Model{cfg: cfg, k: sim.NewKernel(), rng: sim.NewRNG(cfg.Seed),
		groups: groups, perGroup: cfg.Sites}
	m.net = simnet.NewNetwork(m.k, m.rng.Fork("net"))
	m.lan = m.net.NewLAN(cfg.LAN)

	members := make([]runtimeapi.NodeID, total)
	for i := range members {
		members[i] = runtimeapi.NodeID(i + 1)
	}
	if cfg.DedicatedSequencer && total > 1 && groups == 1 {
		// Node 0 sorts first in the view, making it the sequencer.
		members = append([]runtimeapi.NodeID{0}, members...)
	}
	m.members = members
	if groups == 1 {
		m.net.SetGroup(1, members)
	} else {
		for g := 1; g <= groups; g++ {
			m.net.SetGroup(runtimeapi.Group(g), m.groupMembers(g))
		}
	}

	warehouses := cfg.Warehouses
	if warehouses == 0 {
		warehouses = tpcc.Warehouses(cfg.Clients)
	}

	for _, id := range members {
		host, err := m.net.NewHost(id, m.lan)
		if err != nil {
			return nil, fmt.Errorf("core: site %d: %w", id, err)
		}
		var prof csrt.Profiler = &csrt.ModelProfiler{}
		if cfg.UseWallProfiler {
			prof = &csrt.WallProfiler{}
		}
		rt := csrt.NewRuntime(m.k, id, prof, m.net.Port(id, 0), cfg.Costs,
			m.rng.Fork(fmt.Sprintf("rt-%d", id)))
		ncpu := cfg.CPUsPerSite
		if id == 0 {
			ncpu = 1 // the dedicated sequencer only runs protocol code
		}
		cpus := csrt.NewCPUSet(ncpu, m.k, nil)
		rt.Bind(cpus)
		host.SetDeliver(func(pkt *simnet.Packet) { rt.Deliver(pkt.Src, pkt.Data) })

		site := &Site{ID: dbsm.SiteID(id), RT: rt, CPUs: cpus, Host: host,
			Life: recovery.NewLifecycle(dbsm.SiteID(id))}

		if len(members) > 1 {
			if err := m.buildStack(site, false); err != nil {
				return nil, err
			}
		}

		if id != 0 {
			storage := db.NewStorage(m.k, cfg.Storage, m.rng.Fork(fmt.Sprintf("disk-%d", id)))
			server := db.NewServer(m.k, dbsm.SiteID(id), cpus, storage)
			server.ReadSetThreshold = cfg.ReadSetThreshold
			if cfg.Admission != nil {
				server.MaxActive = cfg.Admission.MaxActivePerSite
			}
			site.Server = server
			site.Gen = tpcc.NewGenerator(dbsm.SiteID(id), warehouses, cfg.Calibration,
				m.rng.Fork(fmt.Sprintf("gen-%d", id)))
			if site.Stack != nil {
				m.buildReplica(site, false)
			}
		}
		if site.Stack != nil {
			site.Stack.Start()
			if site.Replica != nil {
				site.Replica.Start()
			}
		}

		// Fault wiring.
		if cfg.Faults.DriftsSite(int32(id)) {
			rt.SetClockDrift(cfg.Faults.ClockDriftRate)
		}
		if cfg.Faults.DelaysSite(int32(id)) {
			rt.SetSchedulingLatency(cfg.Faults.SchedLatencyGen(),
				m.rng.Fork(fmt.Sprintf("lat-%d", id)))
		}
		if lm := cfg.Faults.Loss.NewModel(); lm != nil {
			host.SetLoss(lm)
		}
		if in := cfg.Faults.Duplicate.NewInjector(); in != nil {
			host.SetDuplicate(in)
		}
		if in := cfg.Faults.Reorder.NewInjector(); in != nil {
			host.SetReorder(in)
		}
		if id == 0 {
			m.dedicated = site
		} else {
			m.sites = append(m.sites, site)
		}
	}

	crashAt := map[int32]sim.Time{}
	for _, cr := range cfg.Faults.Crashes {
		idx := int(cr.Site) - 1
		if idx < 0 || idx >= len(m.sites) {
			return nil, fmt.Errorf("core: crash targets unknown site %d", cr.Site)
		}
		if _, dup := crashAt[cr.Site]; dup {
			return nil, fmt.Errorf("core: site %d crashes twice", cr.Site)
		}
		crashAt[cr.Site] = cr.At
		site := m.sites[idx]
		m.k.ScheduleAt(cr.At, func() { m.crash(site) })
	}
	seenRecover := map[int32]bool{}
	for _, rc := range cfg.Faults.Recovers {
		idx := int(rc.Site) - 1
		if idx < 0 || idx >= len(m.sites) {
			return nil, fmt.Errorf("core: recovery targets unknown site %d", rc.Site)
		}
		at, crashed := crashAt[rc.Site]
		if !crashed {
			return nil, fmt.Errorf("core: recovery of site %d without a crash", rc.Site)
		}
		if rc.At <= at {
			return nil, fmt.Errorf("core: site %d recovers at %v, not after its crash at %v", rc.Site, rc.At, at)
		}
		if seenRecover[rc.Site] {
			return nil, fmt.Errorf("core: site %d recovers twice", rc.Site)
		}
		seenRecover[rc.Site] = true
		site := m.sites[idx]
		if m.pendingRecover == nil {
			m.pendingRecover = make(map[*Site]bool)
		}
		m.pendingRecover[site] = true
		m.k.ScheduleAt(rc.At, func() {
			delete(m.pendingRecover, site)
			m.recover(site)
		})
	}

	// The network supports one active cut at a time, so partitions must
	// not overlap in time; and the combined structural faults (crashes
	// plus partitioned minorities) must leave a strict majority of the
	// group, or the primary-component rule would wedge every survivor.
	if len(cfg.Faults.Partitions) > 0 {
		parts := append([]faults.Partition(nil), cfg.Faults.Partitions...)
		sort.Slice(parts, func(i, j int) bool { return parts[i].At < parts[j].At })
		for i := 1; i < len(parts); i++ {
			prev := parts[i-1]
			if prev.Heal == 0 || prev.Heal > parts[i].At {
				return nil, fmt.Errorf("core: partitions overlap: cut at %v starts before the cut at %v heals",
					parts[i].At, prev.At)
			}
		}
		disabled := map[int32]bool{}
		perG := make([]int, m.groups+1)
		mark := func(sid int32) {
			if !disabled[sid] {
				disabled[sid] = true
				if g := m.siteGroup(sid); g >= 1 && g <= m.groups {
					perG[g]++
				}
			}
		}
		for _, cr := range cfg.Faults.Crashes {
			mark(cr.Site)
		}
		for _, pt := range parts {
			for _, sid := range pt.Sites {
				mark(sid)
			}
		}
		// The majority rule is per replication group: each group runs its
		// own view, so each one individually must keep a strict majority.
		for g := 1; g <= m.groups; g++ {
			if 2*perG[g] >= m.perGroup {
				if m.groups == 1 {
					return nil, fmt.Errorf("core: crashes and partitions disable %d of %d sites; a strict majority must survive",
						perG[g], m.perGroup)
				}
				return nil, fmt.Errorf("core: crashes and partitions disable %d of group %d's %d sites; a strict majority must survive in every group",
					perG[g], g, m.perGroup)
			}
		}
	}
	for _, pt := range cfg.Faults.Partitions {
		if len(pt.Sites) == 0 {
			return nil, fmt.Errorf("core: partition isolates no sites")
		}
		cnt := make([]int, m.groups+1)
		for _, sid := range pt.Sites {
			if idx := int(sid) - 1; idx < 0 || idx >= total {
				return nil, fmt.Errorf("core: partition targets unknown site %d", sid)
			}
			cnt[m.siteGroup(sid)]++
		}
		for g := 1; g <= m.groups; g++ {
			if 2*cnt[g] < m.perGroup {
				continue
			}
			if m.groups == 1 {
				return nil, fmt.Errorf("core: partition isolates %d of %d sites; the isolated side must be a strict minority",
					cnt[g], m.perGroup)
			}
			return nil, fmt.Errorf("core: partition isolates %d of group %d's %d sites; the isolated side must be a strict minority in every group",
				cnt[g], g, m.perGroup)
		}
		if pt.Heal != 0 && pt.Heal <= pt.At {
			return nil, fmt.Errorf("core: partition heals at %v, not after its start %v", pt.Heal, pt.At)
		}
		minority := make([]*Site, 0, len(pt.Sites))
		ids := make([]runtimeapi.NodeID, 0, len(pt.Sites))
		for _, sid := range pt.Sites {
			idx := int(sid) - 1
			if idx < 0 || idx >= len(m.sites) {
				return nil, fmt.Errorf("core: partition targets unknown site %d", sid)
			}
			minority = append(minority, m.sites[idx])
			ids = append(ids, runtimeapi.NodeID(sid))
		}
		m.k.ScheduleAt(pt.At, func() {
			for _, s := range minority {
				s.partitioned = true
			}
			m.net.Partition(ids)
		})
		if pt.Heal != 0 {
			m.k.ScheduleAt(pt.Heal, func() { m.net.Heal() })
		}
	}

	// Overload faults. Saturation compresses every client's think time (the
	// clients are built below; the closures fire only once the kernel runs).
	if sat := cfg.Faults.Saturation; sat.Active() {
		if sat.Until != 0 && sat.Until <= sat.At {
			return nil, fmt.Errorf("core: saturation ends at %v, not after its start %v", sat.Until, sat.At)
		}
		factor := sat.Factor
		m.k.ScheduleAt(sat.At, func() { m.setLoadFactor(factor) })
		if sat.Until != 0 {
			m.k.ScheduleAt(sat.Until, func() { m.setLoadFactor(1) })
		}
	}
	for _, sn := range cfg.Faults.SlowNodes {
		if sn.Factor <= 1 {
			continue
		}
		idx := int(sn.Site) - 1
		if idx < 0 || idx >= len(m.sites) {
			return nil, fmt.Errorf("core: slow-node targets unknown site %d", sn.Site)
		}
		if sn.Until != 0 && sn.Until <= sn.At {
			return nil, fmt.Errorf("core: slow-node ends at %v, not after its start %v", sn.Until, sn.At)
		}
		site := m.sites[idx]
		factor := sn.Factor
		m.k.ScheduleAt(sn.At, func() { m.setSlow(site, factor) })
		if sn.Until != 0 {
			m.k.ScheduleAt(sn.Until, func() { m.setSlow(site, 1) })
		}
	}

	// Clients are assigned round-robin: the ten clients of one warehouse
	// spread across sites, so hot-row conflicts that local locks would
	// serialize on a single site surface as certification conflicts
	// between sites — the replication effect of Table 1. Under partial
	// replication, clients are instead routed to the primary site of
	// their home warehouse, which stores their data.
	// Under group mode, clients live at their home warehouse's group — the
	// only sites storing their data; cross-group traffic then comes from
	// payment's remote warehouse and new-order's remote stock lines.
	partial := cfg.ReplicationDegree > 0 && cfg.ReplicationDegree < cfg.Sites
	if cfg.AggregateClients > 0 && cfg.Clients >= cfg.AggregateClients {
		m.buildAggregates(partial)
		return m, nil
	}
	for i := 0; i < cfg.Clients; i++ {
		var site *Site
		switch {
		case m.groups > 1:
			site = m.sites[xgroup.HomeSite(i/tpcc.ClientsPerWarehouse, m.groups, m.perGroup)-1]
		case partial:
			site = m.sites[primarySiteIndex(i/tpcc.ClientsPerWarehouse, cfg.Sites)]
		default:
			site = m.sites[i%len(m.sites)]
		}
		cl := &tpcc.Client{
			ID:     i,
			Server: site.Server,
			Gen:    site.Gen,
			Think:  cfg.Calibration.ThinkTime,
			Stop:   m.takeTxnSlot,
			OnDone: m.onDone,
		}
		if cfg.Admission != nil {
			cl.Retry = cfg.Admission.Retry
		}
		m.clients = append(m.clients, cl)
		cl.Start(m.k, m.rng.Fork(fmt.Sprintf("client-%d", i)))
	}
	return m, nil
}

// buildAggregates assembles the aggregate client tier: one compound arrival
// process per site, standing in for the site's share of the population under
// the exact client-placement rule the individual tier uses. Each placement
// mode admits an O(1) dense-index → home-warehouse closure, so no
// population-sized table is ever materialized:
//
//   - round-robin: the clients at site index s are i = s + k·nsites;
//   - primary-site (partial replication) and group-homed placements assign
//     whole warehouse blocks of ClientsPerWarehouse clients, and the
//     warehouses homed at one site form an arithmetic progression (stride
//     nsites resp. groups·perGroup). Only the globally-last warehouse block
//     can be partial, and it is the last block of its site's progression,
//     so dense indexing by k/ClientsPerWarehouse is exact.
func (m *Model) buildAggregates(partial bool) {
	cfg := m.cfg
	nsites := len(m.sites)
	proc := cfg.Calibration.ArrivalProcess()
	for idx, site := range m.sites {
		var pop int
		var homeWH func(k int) int
		blockPop := func(start, stride int) int {
			n := 0
			for wh := start; wh*tpcc.ClientsPerWarehouse < cfg.Clients; wh += stride {
				c := cfg.Clients - wh*tpcc.ClientsPerWarehouse
				if c > tpcc.ClientsPerWarehouse {
					c = tpcc.ClientsPerWarehouse
				}
				n += c
			}
			return n
		}
		switch {
		case m.groups > 1:
			// Invert xgroup.HomeSite: site idx+1 homes the warehouses
			// wh = groups·(r + j·perGroup) + g0 with g0 = idx/perGroup,
			// r = idx%perGroup.
			g0, r := idx/m.perGroup, idx%m.perGroup
			start, stride := m.groups*r+g0, m.groups*m.perGroup
			pop = blockPop(start, stride)
			homeWH = func(k int) int { return start + (k/tpcc.ClientsPerWarehouse)*stride }
		case partial:
			// Invert primarySiteIndex: wh ≡ idx (mod sites).
			start, stride := idx, cfg.Sites
			pop = blockPop(start, stride)
			homeWH = func(k int) int { return start + (k/tpcc.ClientsPerWarehouse)*stride }
		default:
			if idx < cfg.Clients {
				pop = (cfg.Clients-1-idx)/nsites + 1
			}
			s := idx
			homeWH = func(k int) int { return (s + k*nsites) / tpcc.ClientsPerWarehouse }
		}
		if pop == 0 {
			continue
		}
		a := &tpcc.Aggregate{
			Server:     site.Server,
			Gen:        site.Gen,
			Proc:       proc,
			Population: pop,
			HomeWH:     homeWH,
			Stop:       m.takeTxnSlot,
		}
		if cfg.Admission != nil {
			a.Retry = cfg.Admission.Retry
		}
		s := site
		a.OnDone = func(t *db.Txn, o db.Outcome) { m.onDoneAgg(s, t, o) }
		m.aggs = append(m.aggs, a)
		a.Start(m.k, m.rng.Fork(fmt.Sprintf("aggclients-%d", site.ID)))
	}
}

// Kernel exposes the simulation kernel (tests, custom drivers).
func (m *Model) Kernel() *sim.Kernel { return m.k }

// Sites exposes the assembled replicas.
func (m *Model) Sites() []*Site { return m.sites }

// Dedicated exposes the dedicated sequencer member, or nil.
func (m *Model) Dedicated() *Site { return m.dedicated }

// Network exposes the simulated network.
func (m *Model) Network() *simnet.Network { return m.net }

// setLoadFactor applies a saturation factor to every client (or, in
// aggregate mode, every site's arrival process).
func (m *Model) setLoadFactor(f float64) {
	for _, c := range m.clients {
		c.SetLoadFactor(f)
	}
	for _, a := range m.aggs {
		a.SetLoadFactor(f)
	}
}

// setSlow applies (factor > 1) or clears (factor <= 1) a gray-failure
// degradation on one site: simulated CPU work, disk service time, and the
// inbound link all slow down, while the protocol's real jobs — and with them
// heartbeats and gossip — stay timely, so the failure detector never fires.
func (m *Model) setSlow(s *Site, factor float64) {
	s.CPUs.SetSimSlowdown(factor)
	s.Server.Storage().SetSlowdown(factor)
	var extra sim.Time
	if factor > 1 {
		extra = sim.Time((factor - 1) * float64(100*sim.Microsecond))
	}
	s.Host.SetExtraDelay(extra)
}

// takeTxnSlot reserves one transaction from the global budget; it reports
// true (stop) when the budget is exhausted.
func (m *Model) takeTxnSlot() bool {
	if m.issued >= m.cfg.TotalTxns {
		return true
	}
	m.issued++
	return false
}

func (m *Model) siteOf(server *db.Server) *Site {
	for _, s := range m.sites {
		if s.Server == server {
			return s
		}
	}
	return nil
}

func (m *Model) onDone(c *tpcc.Client, t *db.Txn, o db.Outcome) {
	m.finished++
	m.lastDone = m.k.Now()
	if m.cfg.CollectTxnLog {
		site := m.siteOf(c.Server)
		m.txnLog.Add(trace.Record{
			TID:     t.TID,
			Class:   t.Class,
			Site:    site.ID,
			Client:  c.ID,
			Submit:  t.SubmitAt,
			End:     t.EndAt,
			Outcome: o,
		})
	}
}

// onDoneAgg is the aggregate tier's completion hook: identical accounting,
// but no individual client exists — the log records client -1.
func (m *Model) onDoneAgg(s *Site, t *db.Txn, o db.Outcome) {
	m.finished++
	m.lastDone = m.k.Now()
	if m.cfg.CollectTxnLog {
		m.txnLog.Add(trace.Record{
			TID:     t.TID,
			Class:   t.Class,
			Site:    s.ID,
			Client:  -1,
			Submit:  t.SubmitAt,
			End:     t.EndAt,
			Outcome: o,
		})
	}
}

// buildStack assembles a site's group communication stack — at model build
// time (joining false) or for a fresh incarnation rejoining after a crash
// (joining true).
func (m *Model) buildStack(s *Site, joining bool) error {
	group, members := 1, m.members
	if m.groups > 1 {
		group = m.siteGroup(int32(s.ID))
		members = m.groupMembers(group)
	}
	gcfg := gcs.Config{
		Self:         runtimeapi.NodeID(s.ID),
		Members:      members,
		Group:        runtimeapi.Group(group),
		UseMulticast: true,
		Joining:      joining,
		// Partitions need the primary-component rule: the minority side
		// must wedge rather than split-brain.
		PrimaryComponent: len(m.cfg.Faults.Partitions) > 0,

		NonUniformSequencer: m.cfg.Hooks.NonUniformSequencer,
	}
	if m.cfg.GCSTweak != nil {
		m.cfg.GCSTweak(&gcfg)
	}
	stack, err := gcs.New(s.RT, gcfg)
	if err != nil {
		return fmt.Errorf("core: site %d stack: %w", s.ID, err)
	}
	s.Stack = stack
	return nil
}

// buildReplica assembles a site's termination glue over the current stack.
func (m *Model) buildReplica(s *Site, recovering bool) {
	opts := replica.Options{
		Optimistic:       m.cfg.Protocol == ProtocolOptimistic,
		ReadSetThreshold: m.cfg.ReadSetThreshold,
		Replicates:       replicatesFunc(int(s.ID)-1, m.cfg.Sites, m.cfg.ReplicationDegree),
		Recovering:       recovering,
	}
	if m.groups > 1 {
		opts.Group = m.siteGroup(int32(s.ID))
		opts.GroupCount = m.groups
		opts.SitesPerGroup = m.perGroup
		opts.GroupOf = warehouseClassifier(m.groups)
	}
	if ad := m.cfg.Admission; ad != nil {
		opts.BacklogHigh, opts.BacklogLow = ad.BacklogHigh, ad.BacklogLow
	}
	s.Replica = replica.New(s.RT, s.Stack, s.Server, opts)
}

// crash stops a site completely, capturing its crash horizon (applied
// sequence and commit log) so a later recovery can size the snapshot and
// verify the rejoin prefix condition.
func (m *Model) crash(s *Site) {
	var commits []trace.CommitEntry
	if s.Replica != nil {
		commits = s.Replica.CommitLog().Entries()
	}
	if err := s.Life.Crash(m.k.Now(), s.Server.LastApplied(), commits); err != nil {
		panic(err) // fault schedules are validated at model build
	}
	s.RT.Crash()
	s.Host.SetDown(true)
	s.Server.Crash()
	if s.Stack != nil {
		s.Stack.Stop()
	}
	if s.Replica != nil {
		s.Replica.Stop()
	}
}

// recover restarts a crashed site: the runtime and host come back, a fresh
// stack begins the join handshake, and a fresh replica buffers deliveries
// until the recovery manager finishes the state transfer. The server stays
// down (its clients blocked) until the snapshot installs.
func (m *Model) recover(s *Site) {
	if err := s.Life.BeginRecovery(m.k.Now()); err != nil {
		panic(err)
	}
	// Fold the dead incarnation's protocol counters into the site totals
	// before discarding it.
	if s.Stack != nil {
		accumulateGCS(&s.deadGCS, s.Stack.Stats())
	}
	if s.Replica != nil {
		accumulateReplica(&s.deadReplica, s.Replica.Stats())
	}
	s.RT.Restart()
	s.Host.SetDown(false)
	if err := m.buildStack(s, true); err != nil {
		panic(err) // the original stack built from the same inputs
	}
	m.buildReplica(s, true)
	mgr := recovery.NewManager(recovery.ManagerConfig{
		K:         m.k,
		Site:      s.ID,
		Life:      s.Life,
		PickDonor: func() recovery.Donor { return m.pickDonor(s) },
		Joiner:    s.Replica,
		WriteSectors: func(n int, done func()) {
			s.Server.Storage().WriteSectors(n, done)
		},
		OnViolation: func(v *check.Violation) {
			m.rejoinViolations++
			if m.rejoinViolation == nil {
				m.rejoinViolation = v
			}
		},
	})
	s.Stack.OnJoined(mgr.OnJoined)
	s.Stack.Start()
	s.Replica.Start()
}

// pickDonor selects the snapshot donor for a joiner: the lowest-numbered
// fully-operational replica. Deterministic, so a replayed seed transfers
// from the same site.
func (m *Model) pickDonor(joiner *Site) recovery.Donor {
	for _, s := range m.sites {
		if s == joiner || !s.operational() || s.Replica == nil || s.Replica.Recovering() {
			continue
		}
		return s.Replica
	}
	return nil
}

// Run executes the model to completion and assembles results.
func (m *Model) Run() (*Results, error) {
	cfg := m.cfg
	const chunk = 500 * sim.Millisecond
	var drainUntil sim.Time = -1
	for cursor := sim.Time(0); ; {
		cursor += chunk
		if cursor > cfg.MaxSimTime {
			cursor = cfg.MaxSimTime
		}
		if err := m.k.RunUntil(cursor); err != nil {
			return nil, fmt.Errorf("core: run: %w", err)
		}
		if m.k.Pending() == 0 {
			break
		}
		if cursor >= cfg.MaxSimTime {
			break
		}
		if m.quiesced() {
			if drainUntil < 0 {
				drainUntil = cursor + cfg.DrainTime
			}
			if cursor >= drainUntil {
				break
			}
		}
	}
	return m.results(), nil
}

// quiesced reports whether issuance stopped and no live site has work in
// flight. Sites isolated in a partition minority are excluded: their
// in-flight transactions can never resolve once the majority excludes them
// from the view. A site mid-recovery holds the run open — its rejoin always
// completes in bounded time, and ending before it would leave the recovery
// metrics (and the rejoin safety condition) unexercised.
func (m *Model) quiesced() bool {
	if m.issued < m.cfg.TotalTxns {
		return false
	}
	for _, c := range m.clients {
		// A backoff timer holds an unsubmitted retry: the run must stay
		// open for the resubmission, or the retried transaction would be
		// cut off mid-flight.
		if c.RetryPending() {
			return false
		}
	}
	for _, a := range m.aggs {
		if a.RetryPending() {
			return false
		}
	}
	live := int64(0)
	for _, s := range m.sites {
		if s.Life.State() == recovery.StateRecovering || m.pendingRecover[s] {
			return false
		}
		if s.operational() {
			sub, com, ab, rej := s.Server.Totals()
			live += sub - com - ab - rej
		}
	}
	return live == 0
}
