package gcs

import (
	"slices"

	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// relMcast is the bottom layer (Section 3.4): reliable FIFO multicast with
// IP-multicast dissemination, window-based receiver-initiated loss repair,
// and two-phase flow control (rate-based on first transmission, buffer-share
// and window based afterwards). Messages are buffered — at the sender for
// retransmission and at receivers for relay during view changes — until the
// stability protocol declares them received by all members.
//
// Each of those buffers is a window of consecutive sequence numbers above
// the stream's stable mark, so each is a seqRing keyed by sequence number:
// sendBuf at the sender, peerState.recvBuf at every receiver. Every loop over
// a range of sequence numbers — a NACK's ranges, a stability advance, a flush
// target, a gap scan — visits the chunks a ring holds, never the numbers in
// between, so its work is bounded by the window and not by a number taken
// from the wire.
type relMcast struct {
	s *Stack

	// Sender side. sendBuf holds the own stream's transmitted chunks, from
	// first transmission until gcStable(self) finds them stable: at most
	// sendWindow of them (drain's gate).
	sendSeq      uint64 // last sequence number of my stream
	sendBuf      seqRing[[]byte]
	sendBufBytes int
	// outQ[outHead:] is queued but unsent. drain pops by advancing outHead
	// (reslicing would leave every later append without spare capacity) and
	// starts over at the front of the array once the queue is empty.
	outQ      []outChunk
	outHead   int
	outQBytes int // wire bytes queued but unsent
	frozen    bool
	blockedAt sim.Time
	blocked   bool

	// Rate-based flow control (phase one).
	tokens     float64
	lastRefill sim.Time
	rateTimer  runtimeapi.Timer // drains the queue once the tokens suffice
	rateArmed  bool             // rateTimer is armed or its drain queued

	// The peer table: one row per member of the configured universe, self
	// included (self is the same row, kept at hand for the send path), plus
	// a row for any other sender whose stream reached this stack. A universe
	// is a handful of sites, so a lookup scans the rows.
	peers []*peerState
	self  *peerState

	// freeMsgs recycles dataMsg structs with the buffer each one's Data
	// owns: receive and self-delivery copy a chunk into it (a datagram is
	// only lent for its upcall), it lives in a peer's receive buffer until
	// stability GC (or exclusion), then returns to the pool.
	freeMsgs sim.FreeList[*dataMsg]

	// freeChunks recycles the own stream's wire chunks: cast marshals into
	// one, it waits in outQ and then in sendBuf for retransmission, and
	// gcStable(self) hands it back once every member holds it. The network
	// copies what it sends, so no other stack ever reads a chunk.
	freeChunks sim.FreeList[[]byte]

	// freeBodies recycles message bodies: every message is put together in
	// one from its chunks (fifoDeliver), travels with it through the total
	// order layer, and the buffer comes back when the delivery upcall
	// returns — which is why a Payload is only valid for the length of its
	// upcall. Only the stack's dispatch context touches the list.
	freeBodies sim.FreeList[[]byte]
}

const (
	// bodyCap is what a free-list miss allocates: room for the typical
	// fragmented certification message (about 4 KB); append grows the rare
	// larger one, and the grown buffer is the one that returns to the list.
	bodyCap = 4096
	// maxFreeBodies bounds the list. Buffers in circulation track the
	// reassembled-but-undelivered messages, tens in steady state; after a
	// stall that queued hundreds the surplus goes to the collector instead
	// of staying pinned for the rest of the run.
	maxFreeBodies = 64
	// maxFreeChunks bounds the chunk list the same way: at most sendWindow
	// chunks are unstable, so only a transmit queue that backed up under
	// overload puts more in circulation.
	maxFreeChunks = sendWindow
)

// bufStore is what a released stack leaves for the next newRelMcast: the
// buffers waiting on its three free lists.
type bufStore struct {
	msgs           []*dataMsg
	chunks, bodies [][]byte
}

// bufStores holds the buffers of released stacks.
var bufStores sim.Shelf[bufStore]

type outChunk struct {
	seq  uint64
	wire []byte
}

// peerState is the one record the stack keeps per peer: every sub-protocol's
// per-member state is a column of this row, written by that sub-protocol
// alone. A fresh incarnation of the peer restarts the row through reset.
type peerState struct {
	id NodeID

	// Reliable multicast: the receive side of the peer's stream. recvBuf
	// holds every chunk received above the stable mark: delivered ones
	// below recvNext, kept to relay during a flush, and ones past a gap,
	// kept until the gap closes. A chunk seqWindowCap or more past recvNext
	// is refused on arrival.
	recvNext     uint64 // next expected (contiguous prefix is recvNext-1)
	maxSeen      uint64
	recvBuf      seqRing[*dataMsg]
	nackTimer    runtimeapi.Timer // runs repairGaps for this row
	nackArmed    bool             // nackTimer is armed or its repair queued
	repairTarget NodeID           // where to send NACKs (sender, or holder in flush)
	excluded     bool

	// Reassembly of a fragmented message: body is the pooled buffer its
	// chunks are appended to, non-nil from the first chunk until the last
	// hands it upward.
	body       []byte
	reasmMsgID uint64
	reasmKind  byte

	// The contiguous prefix of MY stream the peer has acknowledged, through
	// assign-acks and stability gossip horizons (mergeAck). Monotone within
	// an incarnation; uniform delivery at the sequencer counts it
	// (totalOrder.majorityHolds).
	acked uint64

	// Stability (stability.go): stable is S, the prefix of the peer's stream
	// known received by all members — outside a restart (reset, installJoin)
	// gcStable is its one writer and has released every buffer at or below
	// it; on the own row it is also the boundary of the send buffer.
	// roundMin is M, the minimum contiguous prefix among the current round's
	// voters.
	stable   uint64
	roundMin uint64

	// Membership (membership.go): failure-detector evidence.
	lastHeard sim.Time
	suspected bool
}

func newRelMcast(s *Stack) *relMcast {
	rm := &relMcast{
		s:      s,
		tokens: float64(s.maxPacket * 2),
	}
	rm.rateTimer = s.rt.NewTimer(func() {
		rm.rateArmed = false
		rm.drain()
	})
	for _, m := range s.cfg.Members {
		rm.peer(m)
	}
	rm.self = rm.peer(s.cfg.Self)
	if st, ok := bufStores.Get(); ok {
		rm.adopt(st)
	}
	return rm
}

// adopt starts the free lists with a released stack's buffers. One too small
// for this stack's datagrams — a stack on a smaller MTU released it — is
// dropped, so a buffer taken off a list never grows.
func (rm *relMcast) adopt(st bufStore) {
	chunk := rm.s.maxPacket
	rm.freeMsgs.Adopt(slices.DeleteFunc(st.msgs, func(m *dataMsg) bool { return cap(m.Data) < chunk-dataHeader }))
	rm.freeChunks.Adopt(slices.DeleteFunc(st.chunks, func(b []byte) bool { return cap(b) < chunk }))
	rm.freeBodies.Adopt(slices.DeleteFunc(st.bodies, func(b []byte) bool { return cap(b) < bodyCap }))
}

// release hands the buffers waiting on the free lists to the next
// newRelMcast. What is lent stays lent: a buffer put back later goes on the
// emptied list.
func (rm *relMcast) release() {
	st := bufStore{msgs: rm.freeMsgs.Handover(), chunks: rm.freeChunks.Handover(), bodies: rm.freeBodies.Handover()}
	if len(st.msgs)+len(st.chunks)+len(st.bodies) > 0 {
		bufStores.Put(st)
	}
}

// newMsg takes a dataMsg from the pool (or allocates one whose Data has room
// for any chunk, so it never grows).
func (rm *relMcast) newMsg() *dataMsg {
	m := rm.freeMsgs.Get()
	if m == nil {
		m = &dataMsg{Data: make([]byte, 0, rm.s.maxPacket-dataHeader)}
	}
	return m
}

// recycleMsg returns a struct whose buffer slot has been vacated, keeping
// the storage of its Data.
func (rm *relMcast) recycleMsg(m *dataMsg) {
	if sim.RaceBuild { // a reader that kept the chunk sees garbage
		sim.Poison(m.Data)
	}
	m.Data = m.Data[:0]
	rm.freeMsgs.Put(m)
}

// newChunk takes an empty wire chunk from the free list (or allocates one
// with room for a whole datagram).
func (rm *relMcast) newChunk() []byte {
	b := rm.freeChunks.Get()
	if b == nil {
		b = make([]byte, 0, rm.s.maxPacket)
	}
	return b
}

// recycleChunk returns a stable chunk of the own stream, which no member
// will ask for again.
func (rm *relMcast) recycleChunk(b []byte) {
	if sim.RaceBuild { // a reader that kept the chunk sees garbage
		sim.Poison(b)
	}
	if rm.freeChunks.Len() >= maxFreeChunks {
		rm.freeChunks.Discard()
		return
	}
	rm.freeChunks.Put(b[:0])
}

// newBody takes an empty reassembly buffer from the free list (or allocates
// one).
func (rm *relMcast) newBody() []byte {
	b := rm.freeBodies.Get()
	if b == nil {
		b = make([]byte, 0, bodyCap)
	}
	return b
}

// recycleBody returns a reassembly buffer nobody may read any more: the
// delivery upcall it was lent to has returned, or its message was cut short.
// A halted stack keeps no list (releaseAll), so an upcall that stopped the
// stack drops its buffer here.
func (rm *relMcast) recycleBody(b []byte) {
	if sim.RaceBuild { // an upcall that kept the body sees garbage
		sim.Poison(b)
	}
	switch {
	case rm.s.stopped:
	case rm.freeBodies.Len() >= maxFreeBodies:
		rm.freeBodies.Discard()
	default:
		rm.freeBodies.Put(b[:0])
	}
}

// find returns id's row, or nil when id has none.
func (rm *relMcast) find(id NodeID) *peerState {
	for _, p := range rm.peers {
		if p.id == id {
			return p
		}
	}
	return nil
}

// peer returns id's row, creating it for a sender the stack has not met.
func (rm *relMcast) peer(id NodeID) *peerState {
	if p := rm.find(id); p != nil {
		return p
	}
	p := &peerState{id: id, recvNext: 1, repairTarget: id}
	p.nackTimer = rm.s.rt.NewTimer(func() {
		p.nackArmed = false
		rm.repairGaps(p)
	})
	rm.peers = append(rm.peers, p)
	return p
}

// contiguous reports the highest sequence number such that every message of
// p's stream up to it has been received locally (own stream: sent counts as
// received).
func (rm *relMcast) contiguous(p NodeID) uint64 { return rm.peer(p).recvNext - 1 }

// share is this member's slice of the buffer pool. A view can transiently
// hold no members (every peer removed during a fault scenario), in which
// case the whole pool is ours.
func (rm *relMcast) share() int {
	n := len(rm.s.view.Members)
	if n == 0 {
		return rm.s.cfg.BufferBytes
	}
	return rm.s.cfg.BufferBytes / n
}

// cast fragments a payload into stream chunks and queues them for
// flow-controlled transmission. All chunks of one message are enqueued
// atomically so a view-change freeze cannot split a message. The chunks come
// from freeChunks, so the caller keeps its payload buffer.
func (rm *relMcast) cast(payloadKind byte, payload []byte) {
	maxChunk := rm.s.maxPacket - dataHeader
	total := len(payload)
	rm.s.rt.Charge(msgCost(total))
	if total == 0 {
		payload = []byte{}
	}
	n := (total + maxChunk - 1) / maxChunk
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		lo := i * maxChunk
		hi := min(lo+maxChunk, total)
		var frag byte
		switch {
		case n == 1:
			frag = fragFull
		case i == 0:
			frag = fragFirst
		case i == n-1:
			frag = fragLast
		default:
			frag = fragMid
		}
		rm.sendSeq++
		m := dataMsg{
			Sender:  rm.s.cfg.Self,
			Seq:     rm.sendSeq,
			Frag:    frag,
			Payload: payloadKind,
			Data:    payload[lo:hi],
		}
		wire := m.marshal(rm.newChunk())
		rm.outQ = append(rm.outQ, outChunk{seq: m.Seq, wire: wire})
		rm.outQBytes += len(wire)
	}
	if int64(rm.outQBytes) > rm.s.stats.QueuePeakBytes {
		rm.s.stats.QueuePeakBytes = int64(rm.outQBytes)
	}
	rm.drain()
}

// drain transmits queued chunks while flow control allows: enough rate
// tokens (phase one), and unstable bytes within the buffer share and window
// (phase two). Blocked chunks wait for stability GC or token refill.
func (rm *relMcast) drain() {
	if rm.frozen || rm.s.stopped {
		return
	}
	rm.refillTokens()
	for rm.outHead < len(rm.outQ) {
		c := rm.outQ[rm.outHead]
		size := len(c.wire)
		unstableCount := rm.sendSeq - rm.self.stable - uint64(len(rm.outQ)-rm.outHead)
		if rm.sendBufBytes+size > rm.share() || unstableCount >= sendWindow {
			rm.noteBlocked()
			return // wait for stability to free share/window
		}
		if rm.tokens < float64(size) {
			rm.noteBlocked()
			rm.scheduleRateTimer(size)
			return
		}
		rm.tokens -= float64(size)
		rm.outQ[rm.outHead].wire = nil
		rm.outHead++
		rm.outQBytes -= size
		rm.sendBuf.put(c.seq, c.wire) // inside sendWindow: never refused
		rm.sendBufBytes += size
		rm.s.stats.Sent++
		rm.s.transmit(c.wire)
		rm.s.memb.sentSomething()
		// Self-delivery: my own stream is received locally at send time.
		m := rm.newMsg()
		if err := parseDataInto(m, c.wire); err == nil {
			rm.onData(m)
		} else {
			// Unreachable for a frame we just marshalled, but a drop
			// here must still be visible in the campaign report.
			rm.s.stats.ParseErrors++
			rm.recycleMsg(m)
		}
	}
	rm.outQ, rm.outHead = rm.outQ[:0], 0
	rm.clearBlocked()
}

// mergeAck merges an acknowledgement from src — an assign-ack or a gossip
// horizon — into its ack cursor and reports whether it advanced (an advance
// may make an announcement batch majority-held). Merges never move the
// cursor backwards, however acknowledgements are reordered in flight.
func (rm *relMcast) mergeAck(src NodeID, seq uint64) bool {
	ps := rm.peer(src)
	if seq <= ps.acked {
		return false
	}
	ps.acked = seq
	return true
}

func (rm *relMcast) noteBlocked() {
	if !rm.blocked {
		rm.blocked = true
		rm.blockedAt = rm.s.rt.Now()
		rm.s.stats.Blocked++
	}
}

func (rm *relMcast) clearBlocked() {
	if rm.blocked {
		rm.blocked = false
		rm.s.stats.BlockedTime += rm.s.rt.Now() - rm.blockedAt
	}
}

func (rm *relMcast) refillTokens() {
	now := rm.s.rt.Now()
	dt := now - rm.lastRefill
	if dt <= 0 {
		return
	}
	rm.lastRefill = now
	burst := float64(max(2*rm.s.maxPacket, rateBps/50))
	rm.tokens += float64(rateBps) * dt.Seconds()
	if rm.tokens > burst {
		rm.tokens = burst
	}
}

func (rm *relMcast) scheduleRateTimer(need int) {
	if rm.rateArmed {
		return
	}
	deficit := float64(need) - rm.tokens
	wait := sim.FromSeconds(deficit / float64(rateBps))
	if wait < sim.Microsecond {
		wait = sim.Microsecond
	}
	rm.rateArmed = true
	rm.rateTimer.Arm(wait)
}

// freeze suspends first transmissions during a view-change flush. Repair
// traffic (NACK service) continues.
func (rm *relMcast) freeze() { rm.frozen = true }

// unfreeze resumes transmissions after a view is installed.
func (rm *relMcast) unfreeze() {
	rm.frozen = false
	rm.drain()
}

// onData handles an incoming (or self-delivered) stream chunk: duplicate
// filtering, FIFO advance, gap detection. A chunk no flow-controlled sender
// could have sent — seqWindowCap or more past the FIFO cursor, or widening
// the receive buffer past it — is dropped as a parse error.
func (rm *relMcast) onData(m *dataMsg) {
	ps := rm.peer(m.Sender)
	if ps.excluded || m.Seq < ps.recvNext {
		rm.recycleMsg(m)
		return
	}
	if _, dup := ps.recvBuf.get(m.Seq); dup {
		rm.recycleMsg(m)
		return
	}
	if m.Seq-ps.recvNext >= seqWindowCap || !ps.recvBuf.put(m.Seq, m) {
		rm.s.stats.ParseErrors++
		rm.recycleMsg(m)
		return
	}
	if m.Seq > ps.maxSeen {
		ps.maxSeen = m.Seq
	}
	for {
		next, ok := ps.recvBuf.get(ps.recvNext)
		if !ok {
			break
		}
		rm.fifoDeliver(ps, next)
		ps.recvNext++
	}
	if ps.recvNext <= ps.maxSeen {
		rm.armNackTimer(ps)
	}
	rm.s.memb.dataProgress()
}

// armNackTimer schedules gap repair for a peer's stream.
func (rm *relMcast) armNackTimer(ps *peerState) {
	if ps.nackArmed {
		return
	}
	ps.nackArmed = true
	ps.nackTimer.Arm(rm.s.cfg.nackDelay)
}

// stopNackTimer withdraws a peer's armed repair. A repair whose timer has
// fired still runs from the CPU queue, and so does an earlier arm that a
// direct repairGaps call left pending; repairGaps then decides afresh
// whether anything is missing.
func stopNackTimer(ps *peerState) {
	if ps.nackArmed {
		ps.nackTimer.Stop()
		ps.nackArmed = false
	}
}

// maxNackRanges bounds the ranges one NACK lists.
const maxNackRanges = 16

// repairGaps sends a NACK listing missing ranges — the holes between the
// chunks buffered past the FIFO cursor, up to maxNackRanges, the last one
// open to maxSeen — and re-arms while gaps persist (receiver-initiated
// repair).
func (rm *relMcast) repairGaps(ps *peerState) {
	if rm.s.stopped || ps.excluded || ps.recvNext > ps.maxSeen {
		return
	}
	var ranges []seqRange
	from := ps.recvNext // lowest sequence number not yet known held or missing
	for seq := range ps.recvBuf.visit(ps.recvNext, ps.maxSeen) {
		if seq > from {
			ranges = append(ranges, seqRange{From: from, To: seq - 1})
			if len(ranges) == maxNackRanges {
				break
			}
		}
		from = seq + 1
	}
	if len(ranges) < maxNackRanges && from <= ps.maxSeen {
		ranges = append(ranges, seqRange{From: from, To: ps.maxSeen})
	}
	if len(ranges) == 0 {
		return
	}
	rm.s.rt.Charge(costPerNack)
	nack := nackMsg{Target: ps.id, Ranges: ranges}
	target := ps.repairTarget
	if target == rm.s.cfg.Self {
		target = ps.id
	}
	rm.s.stats.Nacks++
	rm.s.transmitTo(target, nack.marshal(rm.s.wire[:0]))
	// Re-arm: keep nagging until the gap closes.
	ps.nackArmed = true
	ps.nackTimer.Arm(rm.s.cfg.retransPeriod)
}

// learnHorizon records that p's stream extends at least to seq (learned from
// gossip) and arms repair if we're missing part of it.
func (rm *relMcast) learnHorizon(p NodeID, seq uint64) {
	ps := rm.peer(p)
	if ps.excluded {
		return
	}
	if seq > ps.maxSeen {
		ps.maxSeen = seq
	}
	if ps.recvNext <= ps.maxSeen {
		rm.armNackTimer(ps)
	}
}

// requestRepairTo raises the known horizon of p's stream to target and
// directs NACKs at holder (view-change flush repair).
func (rm *relMcast) requestRepairTo(p NodeID, target uint64, holder NodeID) {
	ps := rm.peer(p)
	if target > ps.maxSeen {
		ps.maxSeen = target
	}
	ps.repairTarget = holder
	if ps.recvNext <= ps.maxSeen {
		// If the row's NACK timer is armed, this arms it again and the
		// earlier arm fires as well: the stream runs two repair chains
		// until its gap closes.
		rm.repairGaps(ps)
	}
}

// onNack serves retransmissions from the send buffer (own stream) or the
// receive buffer (relaying another member's stream during flush), in
// ascending order within each range. A retransmission of an own chunk is the
// stored datagram itself, which Send copies; a relayed one is marshalled into
// the stack's scratch buffer. Every asked-for chunk the buffer does not hold
// counts as a miss.
func (rm *relMcast) onNack(src NodeID, m *nackMsg) {
	if m.Target == rm.s.cfg.Self {
		for _, r := range m.Ranges {
			held := 0
			for _, wire := range rm.sendBuf.visit(r.From, r.To) {
				held++
				rm.s.stats.Retransmits++
				rm.s.rt.Charge(costPerRetrans)
				rm.s.transmitTo(src, wire)
			}
			rm.s.stats.NackMisses += rangeLen(r) - int64(held)
		}
		return
	}
	ps := rm.find(m.Target)
	if ps == nil {
		return
	}
	for _, r := range m.Ranges {
		held := 0
		for _, dm := range ps.recvBuf.visit(r.From, r.To) {
			held++
			rm.s.stats.Retransmits++
			rm.s.rt.Charge(costPerRetrans)
			rm.s.transmitTo(src, dm.marshal(rm.s.wire[:0]))
		}
		rm.s.stats.NackMisses += rangeLen(r) - int64(held)
	}
}

// rangeLen is the count of sequence numbers r names; an inverted range names
// none.
func rangeLen(r seqRange) int64 {
	if r.To < r.From {
		return 0
	}
	return int64(r.To - r.From + 1)
}

// fifoDeliver advances a sender's FIFO stream by one chunk and routes
// complete messages upward. Every message goes up in a pooled body buffer,
// copied from its chunks (one or several), because a chunk's buffer returns
// to freeMsgs at stability GC while the message may still wait for its
// order.
func (rm *relMcast) fifoDeliver(ps *peerState, m *dataMsg) {
	switch m.Frag {
	case fragFull:
		// a pooled body holds any single chunk, so this copy never grows it
		body := append(rm.newBody(), m.Data...)
		rm.complete(ps.id, m.Seq, m.Seq, m.Payload, body)
	case fragFirst:
		buf := rm.newBody()
		ps.reasmMsgID = m.Seq
		ps.reasmKind = m.Payload
		// growth past the pooled buffer's capacity is amortised over the buffer's reuse
		ps.body = append(buf, m.Data...)
	case fragMid:
		if ps.body != nil {
			ps.body = append(ps.body, m.Data...)
		}
	case fragLast:
		if ps.body != nil {
			data := append(ps.body, m.Data...)
			ps.body = nil
			rm.complete(ps.id, ps.reasmMsgID, m.Seq, ps.reasmKind, data)
		}
	}
}

// dropPartial abandons the message p's stream was in the middle of: a view
// change cut the stream, so its last chunk will never be accepted.
func (rm *relMcast) dropPartial(ps *peerState) {
	if ps.body != nil {
		rm.recycleBody(ps.body)
		ps.body = nil
	}
}

// complete routes a fully reassembled message, in a body buffer whose last
// reader hands it back, to the total order layer.
func (rm *relMcast) complete(sender NodeID, msgID, lastSeq uint64, payloadKind byte, data []byte) {
	switch payloadKind {
	case payloadApp:
		rm.s.to.onAppData(sender, msgID, lastSeq, data)
	case payloadSeq:
		assigns, err := parseAssignsInto(rm.s.to.assignScratch, data)
		rm.recycleBody(data) // decoded into assignScratch: nothing reads the bytes again
		if err != nil {
			rm.s.stats.ParseErrors++
			return
		}
		rm.s.to.assignScratch = assigns
		rm.s.to.onAssigns(sender, lastSeq, assigns)
		if sender != rm.s.cfg.Self {
			rm.sendAssignAck(sender, lastSeq)
		}
	}
}

// sendAssignAck tells the sequencer how far this member contiguously holds
// its stream, unblocking the sequencer's uniform-delivery gate without
// waiting for the next stability gossip. upto is the announcement's own last
// chunk: the FIFO cursor has not advanced past the message being handed up
// yet, so contiguous() alone would leave the latest batch un-acked.
func (rm *relMcast) sendAssignAck(sequencer NodeID, upto uint64) {
	if c := rm.contiguous(sequencer); c > upto {
		upto = c
	}
	ack := assignAckMsg{ViewID: rm.s.view.ID, Seq: upto}
	rm.s.rt.Charge(msgCost(assignAckLen))
	rm.s.stats.AssignAcks++
	rm.s.transmitTo(sequencer, ack.marshal(rm.s.wire[:0]))
}

// gcStable raises the stable prefix of p's stream to upto (stability knowledge
// is monotone: a lower value is ignored) and recycles the chunks buffered at
// or below it, releasing sender buffer share when p is self. Stability only
// ever advances over contiguous prefixes received by all members, so this is
// safe.
func (rm *relMcast) gcStable(p NodeID, upto uint64) {
	ps := rm.peer(p)
	if upto <= ps.stable {
		return
	}
	from := ps.stable + 1
	ps.stable = upto
	for seq, m := range ps.recvBuf.visit(from, upto) {
		ps.recvBuf.del(seq)
		rm.recycleMsg(m)
	}
	if ps != rm.self {
		return
	}
	for seq, wire := range rm.sendBuf.visit(from, upto) {
		rm.sendBufBytes -= len(wire)
		rm.sendBuf.del(seq)
		rm.recycleChunk(wire)
	}
	rm.drain() // share freed: release any blocked chunks
}

// reset restarts p's row for a fresh incarnation admitted by a recovery join:
// buffered chunks of the dead incarnation are recycled and the stream cursors
// restart at upto — the flush target covering the old stream at survivors and
// at the joiner itself (everything below is covered by its snapshot and must
// never be NACKed or buffered), or zero for a joiner's brand-new stream. The
// stable prefix restarts with them: carrying the dead incarnation's stability
// over would garbage-collect the new stream's chunks before delivery. The
// failure detector's columns belong to the view install, not to the stream.
func (rm *relMcast) reset(p NodeID, upto uint64) {
	ps := rm.peer(p)
	for _, m := range ps.recvBuf.all() {
		rm.recycleMsg(m)
	}
	ps.recvBuf.clear()
	ps.recvNext = upto + 1
	ps.maxSeen = upto
	ps.stable = upto
	ps.roundMin = upto
	ps.excluded = false
	ps.repairTarget = p
	if ps != rm.self {
		// Seed the fresh incarnation's ack cursor at my stable prefix: its
		// join targets cover at least everything stable, so this is a safe
		// lower bound of the ack its first gossip will carry.
		rm.mergeAck(p, rm.self.stable)
	}
	rm.dropPartial(ps)
	stopNackTimer(ps)
}

// resetSelf restarts this node's own stream. Meaningful when a joiner is
// readmitted a second time — its first admission decide was lost, a member
// mistook its still-joining join requests for a fresh restart, and the
// group reset its cursor for us to zero — so the local numbering must
// restart too or every subsequent cast would be invisible to the group.
// Unsent queued chunks are dropped: while joining/recovering the server is
// down, so nothing application-level is in flight.
func (rm *relMcast) resetSelf() {
	rm.reset(rm.s.cfg.Self, 0)
	for _, wire := range rm.sendBuf.all() {
		rm.recycleChunk(wire)
	}
	rm.sendBuf.clear()
	rm.sendBufBytes = 0
	rm.sendSeq = 0
	for _, c := range rm.outQ[rm.outHead:] {
		rm.recycleChunk(c.wire)
	}
	clear(rm.outQ)
	rm.outQ, rm.outHead = rm.outQ[:0], 0
	rm.outQBytes = 0
	// The new stream renumbers from 1: every old acknowledgement cursor
	// would claim chunks of it no peer has seen.
	for _, ps := range rm.peers {
		ps.acked = 0
	}
}

// releaseAll frees every receive- and send-side buffer at halt: the
// remaining chunks would otherwise be pinned until a stability GC round this
// stack will never run again. Nack timers are cancelled so they cannot
// resurrect repair traffic.
func (rm *relMcast) releaseAll() {
	for _, ps := range rm.peers {
		ps.recvBuf.release()
		ps.body = nil
		stopNackTimer(ps)
	}
	rm.sendBuf.release()
	rm.sendBufBytes = 0
	rm.outQ, rm.outHead = nil, 0
	rm.outQBytes = 0
	rm.freeMsgs.Drop()
	rm.freeChunks.Drop()
	rm.freeBodies.Drop()
	if rm.rateArmed {
		rm.rateTimer.Stop()
		rm.rateArmed = false
	}
}

// excludePeer truncates a crashed member's stream beyond the flush target
// and stops expecting traffic from it.
func (rm *relMcast) excludePeer(p NodeID, upto uint64) {
	ps := rm.peer(p)
	ps.excluded = true
	ps.acked = 0 // a fresh incarnation has acknowledged nothing
	for seq, m := range ps.recvBuf.visit(upto+1, ps.maxSeen) {
		ps.recvBuf.del(seq)
		rm.recycleMsg(m)
	}
	if ps.maxSeen > upto {
		ps.maxSeen = upto
	}
	rm.dropPartial(ps)
	stopNackTimer(ps)
}
