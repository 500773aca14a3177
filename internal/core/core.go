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
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/replica"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tpcc"
	"repro/internal/trace"
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

// Config describes one experiment run. Every field but Calibration is plain
// data and travels in JSON (a saved repro carries its Config whole).
type Config struct {
	// Sites is the number of replicas; 1 runs the centralized baseline
	// without any replication protocol. When Groups > 1, Sites is the
	// number of replicas per group and the model runs Groups×Sites sites
	// in total.
	Sites int `json:"sites,omitempty"`
	// Groups partitions the replicas into this many independent
	// replication groups (partial replication). Each group runs its own
	// group-communication stack and certifies only its own warehouses'
	// transactions; a transaction spanning groups runs the cross-group
	// atomic-commit round (internal/replica, xcommit.go). 0 or 1 runs the
	// classic single-group model. Incompatible with DedicatedSequencer,
	// ReplicationDegree, ReadSetThreshold, and crash recovery
	// (Faults.Recovers); requires Sites >= 2 per group.
	Groups int `json:"groups,omitempty"`
	// Protocol selects the termination variant (default conservative).
	// Ignored when Sites == 1 (no replication protocol runs at all).
	Protocol Protocol `json:"protocol,omitempty"`
	// CPUsPerSite configures each site's processor count.
	CPUsPerSite int `json:"cpusPerSite,omitempty"`
	// Clients is the total emulated user count, split equally between
	// sites in contiguous blocks (preserving warehouse locality).
	Clients int `json:"clients,omitempty"`
	// TotalTxns bounds the run: clients stop issuing after this many
	// submissions (the paper uses 10000).
	TotalTxns int `json:"txns,omitempty"`
	// AggregateClients is the population threshold at or above which the
	// per-client objects are replaced by the aggregate client tier
	// (internal/tpcc): one calibrated per-site, per-class arrival process
	// submitting through the identical admission/retry/backpressure path.
	// Memory and startup cost become O(sites + in-flight) instead of
	// O(population), making 10^6+ client runs cheap. 0 disables (always
	// individual clients). Aggregate runs are statistically — not
	// per-seed — equivalent to individual-client runs; equivalence is
	// pinned within CI95 at 500 clients by the core tests.
	AggregateClients int `json:"aggregateClients,omitempty"`
	// Seed drives every random stream; same seed, same run.
	Seed int64 `json:"seed,omitempty"`
	// Warehouses overrides the database scale (0 derives clients/10).
	Warehouses int `json:"warehouses,omitempty"`
	// Calibration is the workload cost model (nil for default): empirical
	// distributions with no serialized form, so the one field JSON does not
	// carry.
	Calibration *tpcc.Calibration `json:"-"`
	// GCSBufferBytes overrides the group communication buffer pool
	// (gcs.Config.BufferBytes; 0 for its default).
	GCSBufferBytes int `json:"gcsBufferBytes,omitempty"`
	// Faults is the fault load.
	Faults faults.Config `json:"faults,omitzero"`
	// Hooks are test-only protocol switches (see Hooks); the zero value —
	// every hook off — is the only production configuration.
	Hooks Hooks `json:"hooks,omitzero"`
	// ReadSetThreshold upgrades large read-sets to table locks.
	ReadSetThreshold int `json:"readSetThreshold,omitempty"`
	// Admission enables the overload-protection machinery: a per-site
	// active-transaction cap, replica backlog watermarks that gate
	// admission, and client retry with exponential backoff after explicit
	// rejections. Nil runs without admission control (rejections never
	// happen and overload degrades the old way, by thrashing).
	Admission *AdmissionConfig `json:"admission,omitempty"`
	// DedicatedSequencer adds a group member (node 0) that orders
	// messages but hosts no database and originates no application
	// traffic — the paper's Section 5.3 mitigation for sequencer
	// buffer-share exhaustion. Only meaningful when Sites > 1.
	DedicatedSequencer bool `json:"dedicatedSequencer,omitempty"`
	// ReplicationDegree stores each warehouse at this many sites instead
	// of all of them (partial replication, Section 5.2's disk-bottleneck
	// mitigation). 0 or >= Sites means full replication. Clients are
	// then routed to their home warehouse's primary site.
	ReplicationDegree int `json:"replicationDegree,omitempty"`
	// MaxSimTime bounds simulated time, in simulated nanoseconds (default
	// 2h).
	MaxSimTime sim.Time `json:"maxSimTimeNs,omitempty"`
	// CollectTxnLog records every transaction in Results.TxnLog.
	CollectTxnLog bool `json:"collectTxnLog,omitempty"`
}

// Hooks re-open fixed protocol holes for the adversarial explorer's
// self-tests and saved repros: a repro of a historical bug keeps reproducing
// its violation on a healthy tree by naming the hook that resurrects it.
// Never set any hook outside tests and saved repros.
type Hooks struct {
	// NonUniformSequencer reverts the uniform sequencer delivery fix: the
	// sequencer delivers its self-assigned messages without waiting for a
	// majority to hold the assignment, resurrecting the lost-announcement
	// safety hole (see internal/gcs/totalorder.go).
	NonUniformSequencer bool `json:"nonUniformSequencer,omitempty"`
}

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
	if c.MaxSimTime == 0 {
		c.MaxSimTime = 2 * sim.Hour
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

	group       int  // 1-based replication group (1 in the classic model)
	partitioned bool // isolated in a partition minority at some point
	// pendingRecover marks a crashed site whose scheduled recovery has not
	// fired yet: the run must not quiesce before it does, or a
	// crash-and-rejoin schedule would silently skip the rejoin under test.
	pendingRecover bool

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

// clientTier is what the model needs from a client population — individual
// tpcc.Clients, or one tpcc.Aggregate per site above the AggregateClients
// threshold. Class-level outcome accounting stays in each server's
// ClassStats, so no population-indexed structure exists in either tier.
type clientTier interface {
	Retries() int64
	GiveUps() int64
	RetryLat() *metrics.Sample
	// RetryPending reports a backoff timer holding an unsubmitted retry: the
	// run must stay open for the resubmission, or the retried transaction
	// would be cut off mid-flight.
	RetryPending() bool
	SetLoadFactor(f float64)
}

// Model is a configured instance of the testing tool.
type Model struct {
	cfg   Config
	k     *sim.Kernel
	rng   *sim.RNG
	net   *simnet.Network
	lan   *simnet.LAN
	place placement
	// members[g-1] is group g's membership universe, the dedicated sequencer
	// included (rebuilt stacks need it).
	members [][]runtimeapi.NodeID

	sites     []*Site
	dedicated *Site // dedicated sequencer member, when configured
	clients   []clientTier

	issued   int
	finished int64
	lastDone sim.Time
	txnLog   trace.TxnLog

	// rejoinViolations counts install-time prefix-check failures: a dead
	// incarnation's commit log that was not a prefix of its donor's.
	rejoinViolations int64
	rejoinViolation  error
}

// validate rejects configurations the model does not support.
func (c *Config) validate() error {
	groups := max(c.Groups, 1)
	if total := c.Sites * groups; c.Sites < 1 || total > 32 {
		return fmt.Errorf("core: unsupported site count %d (%d groups of %d)", total, groups, c.Sites)
	}
	if c.Protocol != ProtocolConservative && c.Protocol != ProtocolOptimistic {
		return fmt.Errorf("core: unknown protocol %q", c.Protocol)
	}
	if groups > 1 {
		// The cross-group commit path composes with the plain per-group
		// protocol only; the orthogonal single-group features stay out of
		// scope and are rejected rather than silently ignored.
		switch {
		case c.Sites < 2:
			return fmt.Errorf("core: groups need at least 2 sites each, got %d", c.Sites)
		case c.DedicatedSequencer:
			return fmt.Errorf("core: dedicated sequencer is incompatible with %d groups", groups)
		case c.ReplicationDegree > 0:
			return fmt.Errorf("core: replication degree is incompatible with %d groups", groups)
		case c.ReadSetThreshold > 0:
			return fmt.Errorf("core: table-lock upgrade is incompatible with %d groups", groups)
		case len(c.Faults.Recovers) > 0:
			return fmt.Errorf("core: crash recovery is incompatible with %d groups", groups)
		}
	}
	return nil
}

// New builds a model from a config: validate, build the sites on the paper's
// Ethernet-100 segment, arm the fault load, start the clients.
func New(cfg Config) (*Model, error) {
	return newOnLAN(cfg, simnet.DefaultLANConfig("lan0"))
}

// newOnLAN is New on a segment of the caller's choosing. Every run uses the
// one segment New names; the parameter stays for the in-package regression
// test that squeezes the MTU until cross-group prepares must fragment.
func newOnLAN(cfg Config, lan simnet.LANConfig) (*Model, error) {
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, k: sim.NewKernel(), rng: sim.NewRNG(cfg.Seed), place: newPlacement(&cfg)}
	m.net = simnet.NewNetwork(m.k, m.rng.Fork("net"))
	m.lan = m.net.NewLAN(lan)
	if err := m.buildSites(); err != nil {
		return nil, err
	}
	if err := m.armFaults(); err != nil {
		return nil, err
	}
	m.startClients()
	return m, nil
}

// buildSites registers the group memberships and assembles every member.
func (m *Model) buildSites() error {
	total := len(m.place.home)
	m.members = make([][]runtimeapi.NodeID, m.place.groups)
	for g := range m.members {
		m.members[g] = m.place.members(g + 1)
	}
	first := 1
	if m.cfg.DedicatedSequencer && total > 1 {
		// Node 0 sorts first in the view, making it the sequencer.
		m.members[0] = append([]runtimeapi.NodeID{0}, m.members[0]...)
		first = 0
	}
	for g, members := range m.members {
		m.net.SetGroup(runtimeapi.Group(g+1), members)
	}
	warehouses := m.cfg.Warehouses
	if warehouses == 0 {
		warehouses = tpcc.Warehouses(m.cfg.Clients)
	}
	for id := first; id <= total; id++ {
		site, err := m.buildSite(runtimeapi.NodeID(id), total > 1, warehouses)
		if err != nil {
			return err
		}
		if id == 0 {
			m.dedicated = site
		} else {
			m.sites = append(m.sites, site)
		}
	}
	return nil
}

// buildSite assembles one member: host, runtime, CPUs, and — when the model
// is replicated — its stack; every member but the dedicated sequencer (node
// 0) also gets a database server, a generator and the replica glue.
func (m *Model) buildSite(id runtimeapi.NodeID, replicated bool, warehouses int) (*Site, error) {
	cfg := m.cfg
	host, err := m.net.NewHost(id, m.lan)
	if err != nil {
		return nil, fmt.Errorf("core: site %d: %w", id, err)
	}
	rt := csrt.NewRuntime(m.k, id, &csrt.ModelProfiler{}, m.net.Port(id, 0), csrt.DefaultCostParams(),
		m.rng.Fork(fmt.Sprintf("rt-%d", id)))
	ncpu := cfg.CPUsPerSite
	if id == 0 {
		ncpu = 1 // the dedicated sequencer only runs protocol code
	}
	cpus := csrt.NewCPUSet(ncpu, m.k, nil)
	rt.Bind(cpus)
	host.DeliverTo(rt.Deliver)

	site := &Site{ID: dbsm.SiteID(id), RT: rt, CPUs: cpus, Host: host,
		Life: recovery.NewLifecycle(dbsm.SiteID(id)), group: 1}
	if id != 0 { // the dedicated sequencer serves the single group
		site.group = m.place.group(int(id) - 1)
	}
	if replicated {
		if err := m.buildStack(site, false); err != nil {
			return nil, err
		}
	}
	if id != 0 {
		storage := db.NewStorage(m.k, db.StorageConfig{}, m.rng.Fork(fmt.Sprintf("disk-%d", id)))
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

	// Per-member fault wiring.
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
	return site, nil
}

// siteByID resolves a fault's target site; fault names it in the error.
func (m *Model) siteByID(id int32, fault string) (*Site, error) {
	if id < 1 || int(id) > len(m.sites) {
		return nil, fmt.Errorf("core: %s targets unknown site %d", fault, id)
	}
	return m.sites[id-1], nil
}

// armFaults validates the scheduled fault load and arms it on the kernel.
func (m *Model) armFaults() error {
	f := &m.cfg.Faults
	crashAt := map[int32]sim.Time{}
	for _, cr := range f.Crashes {
		site, err := m.siteByID(cr.Site, "crash")
		if err != nil {
			return err
		}
		if _, dup := crashAt[cr.Site]; dup {
			return fmt.Errorf("core: site %d crashes twice", cr.Site)
		}
		crashAt[cr.Site] = cr.At
		m.k.ScheduleAt(cr.At, func() { m.crash(site) })
	}
	for _, rc := range f.Recovers {
		site, err := m.siteByID(rc.Site, "recovery")
		if err != nil {
			return err
		}
		at, crashed := crashAt[rc.Site]
		if !crashed {
			return fmt.Errorf("core: recovery of site %d without a crash", rc.Site)
		}
		if rc.At <= at {
			return fmt.Errorf("core: site %d recovers at %v, not after its crash at %v", rc.Site, rc.At, at)
		}
		if site.pendingRecover {
			return fmt.Errorf("core: site %d recovers twice", rc.Site)
		}
		site.pendingRecover = true
		m.k.ScheduleAt(rc.At, func() {
			site.pendingRecover = false
			m.recover(site)
		})
	}
	if err := m.armPartitions(); err != nil {
		return err
	}

	// Overload faults. Saturation compresses every client's think time (the
	// clients are started later; the closures fire only once the kernel runs).
	if sat := f.Saturation; sat.Active() {
		if sat.Until != 0 && sat.Until <= sat.At {
			return fmt.Errorf("core: saturation ends at %v, not after its start %v", sat.Until, sat.At)
		}
		m.k.ScheduleAt(sat.At, func() { m.setLoadFactor(sat.Factor) })
		if sat.Until != 0 {
			m.k.ScheduleAt(sat.Until, func() { m.setLoadFactor(1) })
		}
	}
	for _, sn := range f.SlowNodes {
		if sn.Factor <= 1 {
			continue
		}
		site, err := m.siteByID(sn.Site, "slow-node")
		if err != nil {
			return err
		}
		if sn.Until != 0 && sn.Until <= sn.At {
			return fmt.Errorf("core: slow-node ends at %v, not after its start %v", sn.Until, sn.At)
		}
		m.k.ScheduleAt(sn.At, func() { m.setSlow(site, sn.Factor) })
		if sn.Until != 0 {
			m.k.ScheduleAt(sn.Until, func() { m.setSlow(site, 1) })
		}
	}
	return nil
}

// armPartitions validates and arms the network cuts. The network supports
// one active cut at a time, so partitions must not overlap in time; and the
// structural faults combined (crashes plus partitioned minorities) must leave
// every replication group a strict majority — each group runs its own view —
// or the primary-component rule would wedge every survivor.
func (m *Model) armPartitions() error {
	f := &m.cfg.Faults
	if len(f.Partitions) == 0 {
		return nil
	}
	sorted := append([]faults.Partition(nil), f.Partitions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for i := 1; i < len(sorted); i++ {
		if prev := sorted[i-1]; prev.Heal == 0 || prev.Heal > sorted[i].At {
			return fmt.Errorf("core: partitions overlap: cut at %v starts before the cut at %v heals",
				sorted[i].At, prev.At)
		}
	}
	disabled := map[*Site]bool{}
	for _, cr := range f.Crashes {
		disabled[m.sites[cr.Site-1]] = true // ids validated by armFaults
	}
	for _, pt := range f.Partitions {
		if len(pt.Sites) == 0 {
			return fmt.Errorf("core: partition isolates no sites")
		}
		if pt.Heal != 0 && pt.Heal <= pt.At {
			return fmt.Errorf("core: partition heals at %v, not after its start %v", pt.Heal, pt.At)
		}
		minority := make([]*Site, 0, len(pt.Sites))
		ids := make([]runtimeapi.NodeID, 0, len(pt.Sites))
		for _, sid := range pt.Sites {
			site, err := m.siteByID(sid, "partition")
			if err != nil {
				return err
			}
			minority = append(minority, site)
			ids = append(ids, runtimeapi.NodeID(sid))
			disabled[site] = true
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
	down := make([]int, m.place.groups+1)
	for _, s := range m.sites {
		if disabled[s] {
			down[s.group]++
		}
	}
	for g := 1; g <= m.place.groups; g++ {
		if 2*down[g] >= m.place.perGroup {
			return fmt.Errorf("core: crashes and partitions disable %d of group %d's %d sites; a strict majority must survive in every group",
				down[g], g, m.place.perGroup)
		}
	}
	return nil
}

// startClients attaches the client population where placement puts it. At or
// above the AggregateClients threshold each site's share becomes one compound
// arrival process indexing into the same per-site description, so no
// population-sized table is ever materialized.
func (m *Model) startClients() {
	cfg := m.cfg
	var retry tpcc.RetryPolicy
	if cfg.Admission != nil {
		retry = cfg.Admission.Retry
	}
	if cfg.AggregateClients > 0 && cfg.Clients >= cfg.AggregateClients {
		proc := cfg.Calibration.ArrivalProcess()
		for idx, site := range m.sites {
			blocks := m.place.clientsAt(idx)
			pop := blocks.population()
			if pop == 0 {
				continue
			}
			a := &tpcc.Aggregate{
				Server:     site.Server,
				Gen:        site.Gen,
				Proc:       proc,
				Retry:      retry,
				Population: pop,
				HomeWH:     func(k int) int { return blocks.client(k) / tpcc.ClientsPerWarehouse },
				Stop:       m.takeTxnSlot,
				// No individual client exists: the log records client -1.
				OnDone: func(t *db.Txn, o db.Outcome) { m.onDone(site, -1, t, o) },
			}
			m.clients = append(m.clients, a)
			a.Start(m.k, m.rng.Fork(fmt.Sprintf("aggclients-%d", site.ID)))
		}
		return
	}
	done := make([]func(*tpcc.Client, *db.Txn, db.Outcome), len(m.sites))
	for idx, site := range m.sites {
		done[idx] = func(c *tpcc.Client, t *db.Txn, o db.Outcome) { m.onDone(site, c.ID, t, o) }
	}
	for i := 0; i < cfg.Clients; i++ {
		idx := m.place.siteOfClient(i)
		cl := &tpcc.Client{
			ID:     i,
			Server: m.sites[idx].Server,
			Gen:    m.sites[idx].Gen,
			Think:  cfg.Calibration.ThinkTime,
			Retry:  retry,
			Stop:   m.takeTxnSlot,
			OnDone: done[idx],
		}
		m.clients = append(m.clients, cl)
		cl.Start(m.k, m.rng.Fork(fmt.Sprintf("client-%d", i)))
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

// onDone is both client tiers' completion hook.
func (m *Model) onDone(s *Site, client int, t *db.Txn, o db.Outcome) {
	m.finished++
	m.lastDone = m.k.Now()
	if m.cfg.CollectTxnLog {
		m.txnLog.Add(trace.Record{
			TID:     t.TID,
			Class:   t.Class,
			Site:    s.ID,
			Client:  client,
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
	gcfg := gcs.Config{
		Self:         runtimeapi.NodeID(s.ID),
		Members:      m.members[s.group-1],
		Group:        runtimeapi.Group(s.group),
		UseMulticast: true,
		BufferBytes:  m.cfg.GCSBufferBytes,
		Joining:      joining,
		// Partitions need the primary-component rule: the minority side
		// must wedge rather than split-brain.
		PrimaryComponent: len(m.cfg.Faults.Partitions) > 0,

		NonUniformSequencer: m.cfg.Hooks.NonUniformSequencer,
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
		Replicates:       m.place.stores(int(s.ID) - 1),
		Recovering:       recovering,
		Group:            s.group,
		GroupCount:       m.place.groups,
		SitesPerGroup:    m.place.perGroup,
		GroupOf:          m.place.owner(),
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
		fold(&s.deadGCS, s.Stack.Stats())
	}
	if s.Replica != nil {
		fold(&s.deadReplica, s.Replica.Stats())
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
	// drainTime runs the model beyond the last completion so protocol
	// activity quiesces before the safety check.
	const drainTime = 2 * sim.Second
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
				drainUntil = cursor + drainTime
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
		if c.RetryPending() {
			return false
		}
	}
	live := int64(0)
	for _, s := range m.sites {
		if s.Life.State() == recovery.StateRecovering || s.pendingRecover {
			return false
		}
		if s.operational() {
			sub, com, ab, rej := s.Server.Totals()
			live += sub - com - ab - rej
		}
	}
	return live == 0
}
