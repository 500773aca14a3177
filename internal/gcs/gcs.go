// Package gcs implements the group communication prototype evaluated by the
// paper (Section 3.4): an atomic multicast built as two layers — a
// view-synchronous reliable multicast and a fixed-sequencer total order
// protocol.
//
// The bottom layer disseminates messages with IP multicast where available
// (falling back to unicast), repairs losses with a window-based
// receiver-initiated NACK mechanism similar to TCP, detects message
// stability with a scalable gossip protocol (vectors S/M and voter set W),
// and performs flow control with a rate-based mechanism during first
// transmission and a window/buffer-share mechanism thereafter. Membership is
// maintained by a consensus-style coordinator protocol that installs new
// views when failures are detected; the sequencer is the first member of the
// current view and is replaced when it fails.
//
// State. The stack keeps two kinds of record, and each sub-protocol writes
// only its own columns. A peerState (rmcast.go) is the one row per peer: the
// reliable layer writes the stream cursors, receive buffer and reassembly
// state, and acked, the prefix of the own stream the peer has acknowledged;
// stability writes stable and roundMin (its vectors S and M), stable
// outside a restart through gcStable alone, which has released every
// buffer at or below it; membership writes lastHeard and suspected. A
// msgState (totalorder.go) is the one record per in-flight message — body,
// assigned global, the announcement that carried the assignment,
// tentative-arrival index — keyed by (sender, first chunk), with order
// (global to key, a seqRing over the assigned-but-undelivered globals) as its
// only second index. Two rules keep them in step: a message leaves the table
// through forget, whatever the reason, and a peer's fresh incarnation
// restarts its row through reset, so neither can be half cleaned.
//
// This is "real code" in the paper's sense: it is written against
// runtimeapi.Runtime only and runs identically on the centralized simulation
// runtime and on the native bridge.
package gcs

import (
	"fmt"
	"sort"

	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// NodeID aliases the runtime identifier type.
type NodeID = runtimeapi.NodeID

// Config parameterizes one member's protocol stack.
type Config struct {
	// Self is this member's node ID.
	Self NodeID
	// Members is the initial view membership. It is sorted by New.
	Members []NodeID
	// Group is the multicast group carrying this stack's traffic.
	Group runtimeapi.Group
	// UseMulticast selects IP multicast dissemination (LAN). When false
	// the stack unicasts to every member (WAN fallback).
	UseMulticast bool
	// BufferBytes is the total buffer pool; each member may own at most
	// BufferBytes/len(Members) of unstable transmitted data (the "buffer
	// share" whose exhaustion the paper observes under loss). Defaults to
	// 384 KiB.
	BufferBytes int
	// Joining starts the stack in recovery-join mode: instead of assuming
	// the configured membership is live, the node periodically requests
	// admission from the current view. The membership layer runs a view
	// change that admits it without flushing (it holds no old-view state),
	// and the sequencer then sends the catch-up sequence — the total-order
	// position below which the node must state-transfer a database
	// snapshot instead of replaying deliveries. The OnJoined upcall fires
	// when that sequence is known. Members must use the same full member
	// universe in Members as the original group.
	Joining bool

	// The protocol's timers, which no caller varies: fill sets the
	// defaults and only this package's tests override them.
	nackDelay       sim.Time // a receiver's wait on a gap before a repair request: 20ms
	retransPeriod   sim.Time // paces NACK re-sends and view-change retransmissions: 100ms
	stabilityPeriod sim.Time // paces stability gossip rounds: 100ms
	failTimeout     sim.Time // the failure detector's silence threshold: 1s
}

func (c *Config) fill() {
	if c.BufferBytes == 0 {
		c.BufferBytes = 384 * 1024
	}
	if c.nackDelay == 0 {
		c.nackDelay = 20 * sim.Millisecond
	}
	if c.retransPeriod == 0 {
		c.retransPeriod = 100 * sim.Millisecond
	}
	if c.stabilityPeriod == 0 {
		c.stabilityPeriod = 100 * sim.Millisecond
	}
	if c.failTimeout == 0 {
		c.failTimeout = 1 * sim.Second
	}
}

// Flow-control bounds no caller ever needed to vary.
const (
	// sendWindow caps a sender's unstable (unacknowledged-stable) chunks,
	// the second-phase flow control.
	sendWindow = 256
	// maxDatagram caps a single wire datagram; a runtime with a smaller MTU
	// binds first (Stack.maxPacket).
	maxDatagram = 1400
	// rateBps is the first-phase rate-based flow control in bytes/s: 6 MB/s,
	// about half of Ethernet-100.
	rateBps = 6_000_000
)

// View is an installed membership.
type View struct {
	ID      uint32
	Members []NodeID
}

// Sequencer reports the fixed sequencer of this view: its first member.
func (v View) Sequencer() NodeID {
	if len(v.Members) == 0 {
		return -1
	}
	return v.Members[0]
}

// Contains reports membership of id.
func (v View) Contains(id NodeID) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Delivery is one totally-ordered application message.
type Delivery struct {
	// Global is the total-order sequence number, identical at all
	// members.
	Global uint64
	// Sender is the originating member.
	Sender NodeID
	// Payload is the application data, valid until the OnDeliver upcall
	// returns: the stack reuses the bytes afterwards, so the consumer must
	// copy anything it retains past the upcall.
	Payload []byte
}

// OptDelivery is a tentative (optimistic) delivery: the message has been
// received reliably but not yet ordered by the sequencer. On LANs the
// spontaneous arrival order usually matches the final total order, letting
// the application start processing one ordering round-trip early — the
// optimistic total order approach the paper lists as ongoing work
// (Section 7, [25]). The final Delivery always follows; OptDeliveries whose
// arrival position disagrees with the final order are counted as
// mispredictions in Stats.
type OptDelivery struct {
	// Sender is the originating member.
	Sender NodeID
	// MsgID identifies the message within the sender's stream; the final
	// Delivery for the same message carries the same sender and payload.
	MsgID uint64
	// Payload is the application data, valid until the final Delivery or
	// OnOptimisticDiscard upcall for the same message returns: the stack
	// reuses the bytes afterwards, so the consumer must copy anything it
	// retains past that.
	Payload []byte
}

// Stats counts protocol activity for the experiment reports. The stack
// increments these fields in place and core's fold merges stacks and
// incarnations field by field — sum, or max where a field is tagged
// `fold:"max"` — so every field must be an integer.
type Stats struct {
	Sent        int64 // data chunks first-transmitted
	Retransmits int64 // chunks retransmitted on NACK
	Nacks       int64 // NACKs sent
	// NackMisses counts chunks a received NACK asked for that this member
	// does not hold — its own chunk already garbage-collected as stable, or
	// another member's it never buffered. Nothing is sent for them, so a
	// requester whose cursor sits below such a chunk asks for ever.
	NackMisses  int64
	AssignAcks  int64 // assignment acks sent (uniform sequencer delivery)
	Gossips     int64 // gossip messages sent
	GossipsRecv int64 // gossip messages received and accepted
	Delivered   int64 // app messages delivered in total order
	Optimistic  int64 // tentative deliveries (when enabled)
	// Mispredicted counts final deliveries whose optimistic (arrival)
	// position disagreed with the total order.
	Mispredicted int64
	// ParseErrors counts malformed wire messages dropped by the receive
	// path. A nonzero value under a loss-free run is a wire-format
	// regression; silent drops would make one invisible.
	ParseErrors int64
	Blocked     int64 // times a cast had to queue on flow control
	BlockedTime sim.Time
	// AssignDeferred counts sequencer assignments deferred because the
	// assigned-but-undelivered span hit assignWindow.
	AssignDeferred int64
	// QueuePeakBytes is the high-water mark of the unsent transmit queue: a
	// peak gauge, so totals take the maximum instead of the sum.
	QueuePeakBytes int64 `fold:"max"`
	ViewChanges    int64
	// QuorumLosses counts wedges under the primary-component rule: the
	// member suspected a majority of its view and halted rather than
	// install a minority view (0 or 1).
	QuorumLosses int64
	// JoinRequests counts admission requests sent while joining; Joins
	// counts views this stack was admitted into as a joiner (0 or 1).
	JoinRequests int64
	Joins        int64
	// RelaysSent and RelaysRecv count point-to-point relay payloads (the
	// cross-group commit round's unordered control traffic).
	RelaysSent int64
	RelaysRecv int64
	// FlushAbandons counts flush rounds abandoned because the proposer
	// itself became suspected mid-flush — a crash landing inside a view
	// change, the double-fault corner the membership layer restarts from.
	FlushAbandons int64
	// UniformStalls counts sequencer deliveries deferred by the uniformity
	// gate: the message was self-assigned but no majority held the
	// assignment yet (see totalorder.go).
	UniformStalls int64
}

// Stack is one member's group communication endpoint.
type Stack struct {
	rt  runtimeapi.Runtime
	cfg Config
	// maxPacket bounds a single wire datagram: min(maxDatagram, rt.MTU()).
	// App messages larger than this are fragmented.
	maxPacket int

	view         View
	rank         int // my index in view.Members
	onDeliver    func(Delivery)
	onOpt        func(OptDelivery)
	onOptDiscard func(OptDelivery)
	onView       func(View)
	onJoined     func(joinSeq uint64)
	onRelay      func(src NodeID, payload []byte)

	rm    *relMcast
	stab  *stability
	to    *totalOrder
	memb  *membership
	stats Stats

	// wire is the marshal buffer of every datagram sent outside the own
	// stream's chunks — NACKs, relayed repairs, assign acks, gossip,
	// membership traffic and relays. Send and Multicast copy before they
	// return, so one buffer serves them all.
	wire []byte

	started bool
	stopped bool

	// Join (recovery) state: joining is true from Start until a view
	// admitting this node installs; joinSynced becomes true when the
	// sequencer's joinSync announces the catch-up sequence.
	joining    bool
	joinSynced bool
	joinSeq    uint64
}

// New builds a stack. The member list is copied and sorted; all members must
// use identical lists.
func New(rt runtimeapi.Runtime, cfg Config) (*Stack, error) {
	cfg.fill()
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("gcs: empty member list")
	}
	members := make([]NodeID, len(cfg.Members))
	copy(members, cfg.Members)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	cfg.Members = members
	found := false
	for _, m := range members {
		if m == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("gcs: self %d not in member list", cfg.Self)
	}
	maxPacket := min(maxDatagram, rt.MTU())
	if maxPacket <= dataHeader+64 {
		return nil, fmt.Errorf("gcs: runtime MTU %d too small", rt.MTU())
	}
	s := &Stack{rt: rt, cfg: cfg, maxPacket: maxPacket, wire: make([]byte, 0, maxPacket)}
	s.view = View{ID: 0, Members: members}
	s.rank = s.indexOf(cfg.Self)
	s.joining = cfg.Joining
	s.joinSynced = !cfg.Joining
	s.rm = newRelMcast(s)
	s.stab = newStability(s)
	s.to = newTotalOrder(s)
	s.memb = newMembership(s)
	return s, nil
}

// OnDeliver installs the total-order delivery upcall. Delivery.Payload is
// valid until the upcall returns; the consumer must copy anything it retains
// past it. Must be set before Start.
func (s *Stack) OnDeliver(fn func(Delivery)) { s.onDeliver = fn }

// OnOptimistic installs the tentative-delivery upcall, enabling optimistic
// total order. OptDelivery.Payload is valid until the message's final
// Delivery (or OnOptimisticDiscard) upcall returns; the consumer must copy
// anything it retains past that. Must be set before Start.
func (s *Stack) OnOptimistic(fn func(OptDelivery)) { s.onOpt = fn }

// OnOptimisticDiscard installs the upcall for tentatively-delivered messages
// the group discards during a view change (an excluded member's message
// beyond the flush target): they will never reach final delivery, so a
// consumer holding speculative state for them must cancel it.
// OptDelivery.Payload is valid until the upcall returns; the consumer must
// copy anything it retains past it. Must be set before Start.
func (s *Stack) OnOptimisticDiscard(fn func(OptDelivery)) { s.onOptDiscard = fn }

// OnViewChange installs the view installation upcall.
func (s *Stack) OnViewChange(fn func(View)) { s.onView = fn }

// OnRelay installs the upcall for point-to-point relay payloads (see Relay).
// The payload slice is the received datagram, which the runtime lends for
// the upcall only; the consumer must copy anything it retains past it. Must
// be set before Start.
func (s *Stack) OnRelay(fn func(src NodeID, payload []byte)) { s.onRelay = fn }

// OnJoined installs the recovery-join upcall: it fires once, when a joining
// stack has been admitted to a view and learned its catch-up sequence. Every
// delivery this stack subsequently makes has a global sequence number greater
// than joinSeq; the application must obtain the effects of messages at or
// below joinSeq by state transfer. Must be set before Start.
func (s *Stack) OnJoined(fn func(joinSeq uint64)) { s.onJoined = fn }

// View reports the current view.
func (s *Stack) View() View { return s.view }

// Stats reports protocol counters.
func (s *Stack) Stats() Stats { return s.stats }

// IsSequencer reports whether this member currently sequences.
func (s *Stack) IsSequencer() bool { return s.view.Sequencer() == s.cfg.Self }

// Start registers the receiver and begins periodic protocol activity. It
// must be invoked from the runtime's dispatch context. A joining stack only
// runs the admission loop; normal operation begins when a view admits it.
func (s *Stack) Start() {
	if s.started {
		return
	}
	s.started = true
	s.rt.SetReceiver(s.receive)
	if s.joining {
		s.memb.startJoin()
		return
	}
	s.stab.startTimer()
	s.memb.startTimers()
}

// Stop silences the stack (used when the local node halts).
func (s *Stack) Stop() { s.halt() }

// halt is the single stop path — explicit Stop, exclusion from the view, and
// quorum-loss wedging all land here. Beyond silencing the stack it releases
// every receive- and send-side buffer, and the free lists, immediately: a
// halted member never reaches another stability GC round, so waiting for one
// would leak each buffered message for the rest of the run.
func (s *Stack) halt() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.rm.releaseAll()
	s.to.releaseAll()
}

// Release hands the buffers waiting on the stack's free lists — received
// chunks' records, own chunks and message bodies — to the next stack New
// builds in this process, which keeps those large enough for its datagrams.
// The stack's Stats, view and Stopped stay readable; one that ran on would
// only grow its buffers again. A model releases its live stacks when its run
// ends (a halted stack keeps no lists).
func (s *Stack) Release() { s.rm.release() }

// Stopped reports whether the stack has halted — by Stop, by exclusion from
// the view, or by wedging on quorum loss (the primary-component rule).
func (s *Stack) Stopped() bool { return s.stopped }

// Multicast submits an application payload for atomic (totally ordered)
// multicast to the group, including self-delivery. It never blocks the
// caller: when flow control forbids transmission the message is queued and
// sent when buffer share, window, or tokens free up. The queue has no bound
// of its own: its callers' admission limits its depth, which
// Stats.QueuePeakBytes records. A stopped stack swallows the payload: a
// halted member's messages are lost by definition.
func (s *Stack) Multicast(payload []byte) {
	if !s.stopped {
		s.rm.cast(payloadApp, payload)
	}
}

// receive is the runtime datagram upcall: the single entry point of all
// protocol traffic.
func (s *Stack) receive(src NodeID, data []byte) {
	if s.stopped || len(data) == 0 {
		return
	}
	s.rt.Charge(msgCost(len(data)))
	s.memb.heard(src)
	if s.joining && data[0] != kindDecide && data[0] != kindJoinSync {
		// Before admission the node holds no view state: group traffic is
		// meaningless to it (stream cursors are set from the flush targets
		// at install; anything dropped here that postdates them is
		// repaired by the reliable layer afterwards). Only the admission
		// decision and a possibly-early catch-up announcement matter; the
		// rest is dropped unparsed, so it cannot count as a parse error.
		return
	}
	switch data[0] {
	case kindData:
		m := s.rm.newMsg()
		if err := parseDataInto(m, data); err != nil {
			s.rm.recycleMsg(m)
			s.stats.ParseErrors++
			return
		}
		s.rm.onData(m)
	case kindNack:
		m, err := parseNack(data)
		if err != nil {
			s.stats.ParseErrors++
			return
		}
		s.rm.onNack(src, m)
	case kindGossip:
		if err := parseGossipInto(&s.stab.gossipScratch, data); err != nil {
			s.stats.ParseErrors++
			return
		}
		s.stats.GossipsRecv++
		s.stab.onGossip(src, &s.stab.gossipScratch)
	case kindHeartbeat:
		// heard() above is all a heartbeat is for.
	case kindPropose:
		m, err := parsePropose(data)
		if err != nil {
			s.stats.ParseErrors++
			return
		}
		s.memb.onPropose(m)
	case kindFlushAck:
		m, err := parseFlushAck(data)
		if err != nil {
			s.stats.ParseErrors++
			return
		}
		s.memb.onFlushAck(src, m)
	case kindDecide:
		m, err := parseDecide(data)
		if err != nil {
			s.stats.ParseErrors++
			return
		}
		s.memb.onDecide(m)
	case kindInstalled:
		m, err := parseInstalled(data)
		if err != nil {
			s.stats.ParseErrors++
			return
		}
		s.memb.onInstalled(src, m)
	case kindJoinReq:
		m, err := parseJoinReq(data)
		if err != nil {
			s.stats.ParseErrors++
			return
		}
		s.memb.onJoinReq(src, m)
	case kindJoinSync:
		m, err := parseJoinSync(data)
		if err != nil {
			s.stats.ParseErrors++
			return
		}
		s.memb.onJoinSync(m)
	case kindAssignAck:
		m, err := parseAssignAck(data)
		if err != nil {
			s.stats.ParseErrors++
			return
		}
		if m.ViewID != s.view.ID {
			return // stale view: the gossip fallback re-carries the cursor
		}
		if s.rm.mergeAck(src, m.Seq) {
			s.to.advanceAnnounceSafe()
			s.rm.drain()
		}
	case kindRelay:
		if s.onRelay == nil {
			s.stats.ParseErrors++
			return
		}
		s.stats.RelaysRecv++
		s.onRelay(src, data[1:])
	default:
		// Unknown message kind: equally a wire-format regression.
		s.stats.ParseErrors++
	}
}

// transmit sends a raw wire message to the whole group (multicast or unicast
// fan-out) honouring the configured dissemination mode. The fan-out sends
// one unchanged buffer to every member.
func (s *Stack) transmit(wire []byte) {
	if s.stopped {
		return
	}
	if s.cfg.UseMulticast {
		_ = s.rt.Multicast(s.cfg.Group, wire)
		return
	}
	for _, m := range s.view.Members {
		if m == s.cfg.Self {
			continue
		}
		_ = s.rt.Send(m, wire)
	}
}

// Relay unicasts an application payload to one node, outside the ordered
// stream — the destination may belong to a different group. Delivery is
// best-effort datagram: no ordering and no retransmission; the cross-group
// commit round layers its own retransmit-until-resolved loop on top. The
// payload is framed in the stack's scratch buffer, which Send copies, so the
// caller keeps ownership.
func (s *Stack) Relay(dst NodeID, payload []byte) {
	if s.stopped || dst == s.cfg.Self {
		return
	}
	s.wire = append(append(s.wire[:0], kindRelay), payload...)
	s.stats.RelaysSent++
	s.memb.sentSomething()
	_ = s.rt.Send(dst, s.wire)
}

// transmitTo unicasts a raw wire message.
func (s *Stack) transmitTo(dst NodeID, wire []byte) {
	if s.stopped || dst == s.cfg.Self {
		return
	}
	_ = s.rt.Send(dst, wire)
}

// indexOf reports the position of id in the current view, or -1.
func (s *Stack) indexOf(id NodeID) int {
	for i, m := range s.view.Members {
		if m == id {
			return i
		}
	}
	return -1
}

// deliver hands one ordered message to the application.
func (s *Stack) deliver(d Delivery) {
	s.stats.Delivered++
	if s.onDeliver != nil {
		s.onDeliver(d)
	}
}
