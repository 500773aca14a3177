// Package simnet is the network simulator substrate, standing in for SSFNet
// in the paper's architecture. It models hosts attached to shared-medium
// LANs (bandwidth, propagation delay, MTU, frame overhead), unreliable
// UDP-like datagram delivery, IP multicast on LANs, receiver-side loss
// injection, and tcpdump-style packet tracing.
package simnet

import (
	"fmt"
	"hash/maphash"

	"repro/internal/metrics"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// NodeID and Group alias the runtime abstraction's identifiers so adapters
// need no conversions.
type (
	// NodeID identifies a host.
	NodeID = runtimeapi.NodeID
	// Group identifies a multicast group.
	Group = runtimeapi.Group
)

// Packet is one datagram in flight. Packet structs are pooled together with
// their payload: Data is the packet's own copy of what the sender passed to
// Send or Multicast. A packet handed to a DeliverFunc, Data included, is
// valid only for the duration of the upcall and is read-only there, since
// every receiver of a multicast reads the same bytes.
type Packet struct {
	Seq       int64 // global trace sequence number
	Src       NodeID
	Dst       NodeID // unicast destination; unset for multicast
	Group     Group  // multicast group; meaningful when Multicast
	Multicast bool
	Data      []byte

	refs int32 // outstanding deliveries before the struct and Data return to the pool
}

// DeliverFunc receives packets that survived the trip. The *Packet and its
// Data are pooled and only valid during the call; copy what is kept.
type DeliverFunc func(pkt *Packet)

// LANConfig configures a shared-medium segment. Defaults model the paper's
// test network: switched Ethernet 100 Mbit/s, 1500-byte MTU.
type LANConfig struct {
	// Name labels the LAN in traces.
	Name string
	// BandwidthBps is the medium capacity in bits per second (default 100e6).
	BandwidthBps int64
	// Propagation is the fixed propagation delay (default 30us, covering
	// switch latency on a small LAN).
	Propagation sim.Time
	// MTU is the maximum frame payload (default 1500).
	MTU int
	// FrameOverhead is per-frame header bytes: Ethernet + IP + UDP
	// (default 46).
	FrameOverhead int
	// FragmentOversize controls oversize datagrams. When true, payloads
	// larger than MTU are fragmented into MTU-sized frames, as a real IP
	// stack does. When false a single oversized frame is transmitted —
	// reproducing SSFNet's behaviour of not enforcing the Ethernet MTU
	// for UDP/IP traffic, which the paper calls out in Figure 3(c).
	FragmentOversize bool
}

func (c *LANConfig) fill() {
	if c.BandwidthBps == 0 {
		c.BandwidthBps = 100e6
	}
	if c.MTU == 0 {
		c.MTU = 1500
	}
}

// DefaultLANConfig returns the paper's test network: switched Ethernet
// 100 Mbit/s, 1500-byte MTU, 46 bytes of Ethernet+IP+UDP framing, and 30 µs
// of propagation and switching latency.
func DefaultLANConfig(name string) LANConfig {
	return LANConfig{
		Name:          name,
		BandwidthBps:  100e6,
		Propagation:   30 * sim.Microsecond,
		MTU:           1500,
		FrameOverhead: 46,
	}
}

// LAN is one shared-medium segment.
type LAN struct {
	cfg       LANConfig
	net       *Network
	hosts     []*Host
	busyUntil sim.Time
	bytes     metrics.ByteMeter
}

// Bytes exposes the traffic meter counting all bytes transmitted on this
// segment (Figure 6c reports this as KB/s).
func (l *LAN) Bytes() *metrics.ByteMeter { return &l.bytes }

// wireSize computes on-the-wire bytes for a payload, honouring the
// fragmentation policy.
func (l *LAN) wireSize(payload int) int {
	if payload <= l.cfg.MTU || !l.cfg.FragmentOversize {
		return payload + l.cfg.FrameOverhead
	}
	frames := (payload + l.cfg.MTU - 1) / l.cfg.MTU
	return payload + frames*l.cfg.FrameOverhead
}

// txTime is the serialization time of wire bytes at the LAN's bandwidth.
func (l *LAN) txTime(wire int) sim.Time {
	return sim.Time(float64(wire) * 8 * 1e9 / float64(l.cfg.BandwidthBps))
}

// Host is one endpoint.
type Host struct {
	id      NodeID
	lan     *LAN
	deliver DeliverFunc
	loss    LossModel
	dup     *Injector
	reorder *Injector
	rng     *sim.RNG
	down    bool
	// extraDelay is added to every inbound packet's arrival instant —
	// gray-failure link degradation: the host is reachable, just slow.
	extraDelay sim.Time

	sent     metrics.ByteMeter
	received metrics.ByteMeter
	dropped  int64
}

// ID reports the host identifier.
func (h *Host) ID() NodeID { return h.id }

// SetDeliver installs the reception upcall.
func (h *Host) SetDeliver(fn DeliverFunc) { h.deliver = fn }

// DeliverTo installs fn as the reception upcall, unwrapped from the pooled
// packet: the one place the wire hands a datagram to a node's runtime,
// host.DeliverTo(rt.Deliver). data is the packet's payload, valid and
// read-only for the call only (csrt.Runtime.Deliver copies it).
func (h *Host) DeliverTo(fn func(src NodeID, data []byte)) {
	h.deliver = func(pkt *Packet) { fn(pkt.Src, pkt.Data) }
}

// SetLoss installs a receiver-side loss model ("each message is discarded
// upon reception with the specified probability", Section 5.3).
func (h *Host) SetLoss(m LossModel) { h.loss = m }

// SetDuplicate installs receiver-side datagram duplication (nil disables):
// each firing delivers a second copy of the datagram shortly after the
// first, as a flapping route or a retransmitting middlebox would. Ordered
// streams dedupe by sequence number; the raw-datagram relay traffic is what
// this really stresses.
func (h *Host) SetDuplicate(in *Injector) { h.dup = in }

// SetReorder installs receiver-side datagram reordering (nil disables):
// each firing holds the datagram back long enough for traffic sent later to
// overtake it.
func (h *Host) SetReorder(in *Injector) { h.reorder = in }

// SetDown marks the host crashed (true) or operational (false). A down host
// silently drops all traffic.
func (h *Host) SetDown(down bool) { h.down = down }

// SetExtraDelay adds d to every subsequent inbound packet's arrival instant
// (gray-failure link degradation; 0 restores normal timing). Unlike loss or
// a partition the traffic still arrives, so failure detectors stay quiet.
func (h *Host) SetExtraDelay(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.extraDelay = d
}

// Sent exposes the bytes this host put on the wire.
func (h *Host) Sent() *metrics.ByteMeter { return &h.sent }

// Dropped reports packets discarded by loss injection at this host.
func (h *Host) Dropped() int64 { return h.dropped }

// TraceEvent classifies trace records.
type TraceEvent byte

// Trace event kinds.
const (
	TraceSend TraceEvent = iota + 1
	TraceRecv
	TraceDrop
	// TraceCut records a packet discarded at a network partition.
	TraceCut
)

func (e TraceEvent) String() string {
	switch e {
	case TraceSend:
		return "send"
	case TraceRecv:
		return "recv"
	case TraceDrop:
		return "drop"
	case TraceCut:
		return "cut"
	default:
		return "?"
	}
}

// TraceRecord is one tcpdump-like log entry.
type TraceRecord struct {
	At    sim.Time
	Event TraceEvent
	Seq   int64
	Src   NodeID
	Dst   NodeID // receiver for recv/drop records
	Multi bool
	Size  int // payload bytes
}

// String formats the record in a tcpdump-ish single line.
func (r TraceRecord) String() string {
	kind := "udp"
	if r.Multi {
		kind = "mcast"
	}
	return fmt.Sprintf("%12.6f %s #%d %d > %d %s len %d",
		r.At.Seconds(), r.Event, r.Seq, r.Src, r.Dst, kind, r.Size)
}

// Network is the topology container.
type Network struct {
	k       *sim.Kernel
	rng     *sim.RNG
	hosts   map[NodeID]*Host
	lans    []*LAN
	groups  map[Group][]NodeID
	tracer  func(TraceRecord)
	seq     int64
	free    sim.FreeList[*Packet]       // recycled Packet structs
	freeArr sim.FreeList[*arrival]      // recycled arrival thunks
	freeTx  sim.FreeList[*transmission] // recycled injection thunks

	// isolated holds the hosts on the cut-off side of the active network
	// partition (nil when fully connected); partitionDrops counts packets
	// discarded at the cut.
	isolated       map[NodeID]bool
	partitionDrops int64

	// digests holds the payload digest of every packet in flight, taken when
	// Send/Multicast copy the payload, in race builds (sim.RaceBuild); nil
	// otherwise. The last release deletes a packet's entry, so a drained
	// network leaves it empty. The seed is random per network, which is
	// harmless: a digest is only ever compared with another this network
	// took.
	digests map[*Packet]uint64
	seed    maphash.Seed
}

// NewNetwork creates an empty topology on the kernel.
func NewNetwork(k *sim.Kernel, rng *sim.RNG) *Network {
	n := &Network{
		k:      k,
		rng:    rng,
		hosts:  make(map[NodeID]*Host),
		groups: make(map[Group][]NodeID),
	}
	if sim.RaceBuild { // receivers that write a payload panic
		n.digests = make(map[*Packet]uint64)
		n.seed = maphash.MakeSeed()
	}
	return n
}

// SetTracer installs a packet trace sink (nil disables tracing).
func (n *Network) SetTracer(fn func(TraceRecord)) { n.tracer = fn }

// NewLAN adds a segment.
func (n *Network) NewLAN(cfg LANConfig) *LAN {
	cfg.fill()
	l := &LAN{cfg: cfg, net: n}
	n.lans = append(n.lans, l)
	return l
}

// NewHost attaches a host to a LAN. Host IDs must be unique.
func (n *Network) NewHost(id NodeID, lan *LAN) (*Host, error) {
	if _, dup := n.hosts[id]; dup {
		return nil, fmt.Errorf("simnet: duplicate host %d", id)
	}
	h := &Host{id: id, lan: lan, rng: n.rng.Fork(fmt.Sprintf("host-%d", id))}
	n.hosts[id] = h
	lan.hosts = append(lan.hosts, h)
	return h, nil
}

// Host looks up a host by ID.
func (n *Network) Host(id NodeID) *Host { return n.hosts[id] }

// SetGroup registers multicast group membership.
func (n *Network) SetGroup(g Group, members []NodeID) {
	m := make([]NodeID, len(members))
	copy(m, members)
	n.groups[g] = m
}

// TotalBytes sums wire bytes over all LANs (Figure 6c).
func (n *Network) TotalBytes() int64 {
	var t int64
	for _, l := range n.lans {
		t += l.bytes.Bytes()
	}
	return t
}

// arrival is one pooled pending reception: the closure scheduled for the
// arrival instant is bound once at allocation and reused, so scheduling a
// reception allocates nothing in steady state.
type arrival struct {
	n    *Network
	dst  *Host
	pkt  *Packet
	fire func()
}

// scheduleArrival schedules pkt's reception at dst at the given instant,
// applying the receiver's chaos injectors first: a reordered datagram's
// arrival is pushed back so traffic sent later overtakes it, and a
// duplicated datagram gets a second, later arrival holding its own packet
// reference. Both decisions are made once, here, so the copies themselves
// are not re-duplicated.
func (n *Network) scheduleArrival(at sim.Time, dst *Host, pkt *Packet) {
	if in := dst.reorder; in != nil && in.fires(at, dst.rng) {
		at += in.drawDelay(dst.rng)
	}
	if in := dst.dup; in != nil && in.fires(at, dst.rng) {
		pkt.refs++
		n.enqueueArrival(at+in.drawDelay(dst.rng), dst, pkt)
	}
	n.enqueueArrival(at, dst, pkt)
}

// enqueueArrival binds a pooled arrival thunk and schedules it.
func (n *Network) enqueueArrival(at sim.Time, dst *Host, pkt *Packet) {
	a := n.freeArr.Get()
	if a == nil {
		a = &arrival{n: n}
		a.fire = a.run
	}
	a.dst, a.pkt = dst, pkt
	n.k.ScheduleAt(at+dst.extraDelay, a.fire)
}

func (a *arrival) run() {
	dst, pkt := a.dst, a.pkt
	a.dst, a.pkt = nil, nil
	a.n.freeArr.Put(a)
	a.n.arrive(dst, pkt)
}

// transmission is one pooled pending injection: the datagram waits out the
// sender's CPU-elapsed delay, then hits the wire. members non-nil selects
// the multicast path.
type transmission struct {
	n       *Network
	src     *Host
	dst     *Host
	members []NodeID
	pkt     *Packet
	fire    func()
}

// scheduleTransmission queues pkt's injection after delay.
func (n *Network) scheduleTransmission(delay sim.Time, src, dst *Host, members []NodeID, pkt *Packet) {
	tx := n.freeTx.Get()
	if tx == nil {
		tx = &transmission{n: n}
		tx.fire = tx.run
	}
	tx.src, tx.dst, tx.members, tx.pkt = src, dst, members, pkt
	n.k.Schedule(delay, tx.fire)
}

func (tx *transmission) run() {
	n, src, dst, members, pkt := tx.n, tx.src, tx.dst, tx.members, tx.pkt
	tx.src, tx.dst, tx.members, tx.pkt = nil, nil, nil, nil
	n.freeTx.Put(tx)
	if members != nil {
		n.transmitMulticast(src, members, pkt)
	} else {
		n.transmit(src, dst, pkt)
	}
}

// newPacket takes a Packet from the free list (or allocates one) holding a
// copy of data, with a single reference held by the in-flight transmission.
// A recycled packet copies into the payload buffer it came back with.
func (n *Network) newPacket(data []byte) *Packet {
	pkt := n.free.Get()
	if pkt == nil {
		pkt = &Packet{}
	}
	pkt.Data = append(pkt.Data[:0], data...)
	pkt.refs = 1
	if sim.RaceBuild {
		n.digests[pkt] = maphash.Bytes(n.seed, pkt.Data)
	}
	return pkt
}

// release drops one reference, held by the node at; the last reference
// returns the struct and its payload buffer to the pool. Race builds check
// the payload against its digest first and then overwrite the whole buffer
// with 0xFF, so a DeliverFunc that kept Data past its upcall reads garbage.
func (n *Network) release(pkt *Packet, at NodeID) {
	pkt.refs--
	if pkt.refs <= 0 {
		if sim.RaceBuild {
			n.checkDigest(pkt, at)
			delete(n.digests, pkt)
			sim.Poison(pkt.Data)
		}
		*pkt = Packet{Data: pkt.Data[:0]}
		n.free.Put(pkt)
	}
}

// checkDigest panics when pkt's payload no longer matches the digest taken
// at Send: a receiver wrote bytes that another receiver of the same packet,
// or a later arrival, can read. at is the node where the change was seen. A
// packet with no entry was released already; the second release is the free
// list's double-put panic to report.
func (n *Network) checkDigest(pkt *Packet, at NodeID) {
	if d, ok := n.digests[pkt]; ok && d != maphash.Bytes(n.seed, pkt.Data) {
		panic(fmt.Sprintf("simnet: payload of packet #%d from node %d changed in flight (seen at node %d)", pkt.Seq, pkt.Src, at))
	}
}

// Send injects a unicast datagram from src after delay (the sender's CPU
// elapsed time; see csrt.Port). It has socket semantics: data is copied into
// the packet before Send returns, so the sender may reuse its buffer at
// once, and the receiver reads the packet's copy, read-only and only for
// its upcall. Race builds (sim.RaceBuild) check at every arrival and at the
// last release that no receiver wrote the copy, and panic naming the
// sender, the packet's trace Seq and the receiver.
func (n *Network) Send(src, dst NodeID, data []byte, delay sim.Time) error {
	hs, ok := n.hosts[src]
	if !ok {
		return fmt.Errorf("simnet: unknown source %d", src)
	}
	hd, ok := n.hosts[dst]
	if !ok {
		return fmt.Errorf("simnet: unknown destination %d", dst)
	}
	n.seq++
	pkt := n.newPacket(data)
	pkt.Seq, pkt.Src, pkt.Dst = n.seq, src, dst
	n.scheduleTransmission(delay, hs, hd, nil, pkt)
	return nil
}

// Multicast injects a LAN multicast from src to every member of g on the
// same segment, excluding the sender. Members on other segments are not
// reached. data is copied once, before Multicast
// returns, and every receiver reads that one copy, under Send's contract.
func (n *Network) Multicast(src NodeID, g Group, data []byte, delay sim.Time) error {
	hs, ok := n.hosts[src]
	if !ok {
		return fmt.Errorf("simnet: unknown source %d", src)
	}
	members, ok := n.groups[g]
	if !ok {
		return fmt.Errorf("simnet: unknown group %d", g)
	}
	n.seq++
	pkt := n.newPacket(data)
	pkt.Seq, pkt.Src, pkt.Group, pkt.Multicast = n.seq, src, g, true
	n.scheduleTransmission(delay, hs, nil, members, pkt)
	return nil
}

// transmit performs the wire transmission of a unicast packet.
func (n *Network) transmit(src, dst *Host, pkt *Packet) {
	if src.down {
		n.release(pkt, src.id)
		return
	}
	if n.tracer != nil {
		n.tracer(TraceRecord{At: n.k.Now(), Event: TraceSend, Seq: pkt.Seq, Src: pkt.Src, Dst: pkt.Dst, Size: len(pkt.Data)})
	}
	src.sent.Add(len(pkt.Data))
	if src.lan != dst.lan {
		n.release(pkt, src.id)
		return // no route between segments: silently dropped
	}
	wire := src.lan.wireSize(len(pkt.Data))
	n.scheduleArrival(n.lanTransmit(src.lan, wire), dst, pkt)
}

// transmitMulticast performs one wire transmission reaching all same-LAN
// group members. Every receiver holds a reference on the shared packet; the
// injection reference is dropped once the arrivals are scheduled.
func (n *Network) transmitMulticast(src *Host, members []NodeID, pkt *Packet) {
	if src.down {
		n.release(pkt, src.id)
		return
	}
	if n.tracer != nil {
		n.tracer(TraceRecord{At: n.k.Now(), Event: TraceSend, Seq: pkt.Seq, Src: pkt.Src, Multi: true, Size: len(pkt.Data)})
	}
	src.sent.Add(len(pkt.Data))
	wire := src.lan.wireSize(len(pkt.Data))
	arrive := n.lanTransmit(src.lan, wire)
	for _, id := range members {
		dst := n.hosts[id]
		if dst == nil || dst == src || dst.lan != src.lan {
			continue
		}
		pkt.refs++
		n.scheduleArrival(arrive, dst, pkt)
	}
	n.release(pkt, src.id)
}

// lanTransmit serializes a frame burst on the shared medium and returns the
// arrival instant at same-segment receivers.
func (n *Network) lanTransmit(l *LAN, wire int) sim.Time {
	start := max(n.k.Now(), l.busyUntil)
	end := start + l.txTime(wire)
	l.busyUntil = end
	l.bytes.Add(wire)
	return end + l.cfg.Propagation
}

// arrive applies the partition cut, receiver-side loss, and crash state,
// then delivers. Whatever the fate, the receiver's packet reference is
// dropped on the way out. Drop, cut, and receive accounting is identical
// with and without a tracer attached — only the trace records themselves
// are conditional. Race builds check the payload against its digest first,
// whatever the fate.
func (n *Network) arrive(dst *Host, pkt *Packet) {
	if sim.RaceBuild {
		n.checkDigest(pkt, dst.id)
	}
	defer n.release(pkt, dst.id)
	if dst.down {
		return
	}
	if !n.reachable(pkt.Src, dst.id) {
		n.partitionDrops++
		if n.tracer != nil {
			n.tracer(TraceRecord{At: n.k.Now(), Event: TraceCut, Seq: pkt.Seq, Src: pkt.Src, Dst: dst.id, Multi: pkt.Multicast, Size: len(pkt.Data)})
		}
		return
	}
	if dst.loss != nil && dst.loss.Drop(dst.rng, n.k.Now()) {
		dst.dropped++
		if n.tracer != nil {
			n.tracer(TraceRecord{At: n.k.Now(), Event: TraceDrop, Seq: pkt.Seq, Src: pkt.Src, Dst: dst.id, Multi: pkt.Multicast, Size: len(pkt.Data)})
		}
		return
	}
	dst.received.Add(len(pkt.Data))
	if n.tracer != nil {
		n.tracer(TraceRecord{At: n.k.Now(), Event: TraceRecv, Seq: pkt.Seq, Src: pkt.Src, Dst: dst.id, Multi: pkt.Multicast, Size: len(pkt.Data)})
	}
	if dst.deliver != nil {
		dst.deliver(pkt)
	}
}
