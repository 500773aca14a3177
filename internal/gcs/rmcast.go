package gcs

import (
	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// relMcast is the bottom layer (Section 3.4): reliable FIFO multicast with
// IP-multicast dissemination, window-based receiver-initiated loss repair,
// and two-phase flow control (rate-based on first transmission, buffer-share
// and window based afterwards). Messages are buffered — at the sender for
// retransmission and at receivers for relay during view changes — until the
// stability protocol declares them received by all members.
type relMcast struct {
	s *Stack

	// Sender side.
	sendSeq      uint64 // next sequence number for my stream
	sendBuf      map[uint64][]byte
	sendBufBytes int
	// outQ[outHead:] is queued but unsent. drain pops by advancing outHead
	// (reslicing would leave every later append without spare capacity) and
	// starts over at the front of the array once the queue is empty.
	outQ      []outChunk
	outHead   int
	outQBytes int // wire bytes queued but unsent
	outQLimit int // bound on outQBytes: maxQueuedBytes
	frozen    bool
	blockedAt sim.Time
	blocked   bool

	// Credit-based flow control (flowcontrol.go): creditLimit is the
	// per-destination window in chunks, creditsPerDest outside tests.
	// creditBlocked marks an in-progress credit-stall episode.
	creditLimit   uint64
	creditBlocked bool

	// Rate-based flow control (phase one).
	tokens     float64
	lastRefill sim.Time
	rateTimer  runtimeapi.Timer

	// The peer table: one row per member of the configured universe, self
	// included (self is the same row, kept at hand for the send path).
	peers map[NodeID]*peerState
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

type outChunk struct {
	seq  uint64
	wire []byte
}

// peerState is the one record the stack keeps per peer: every sub-protocol's
// per-member state is a column of this row, written by that sub-protocol
// alone. A fresh incarnation of the peer restarts the row through reset.
type peerState struct {
	id NodeID

	// Reliable multicast: the receive side of the peer's stream.
	recvNext     uint64 // next expected (contiguous prefix is recvNext-1)
	maxSeen      uint64
	recvBuf      map[uint64]*dataMsg // received chunks kept until stable
	nackTimer    runtimeapi.Timer
	repairTarget NodeID // where to send NACKs (sender, or holder in flush)
	excluded     bool

	// Reassembly of a fragmented message: body is the pooled buffer its
	// chunks are appended to, non-nil from the first chunk until the last
	// hands it upward.
	body       []byte
	reasmMsgID uint64
	reasmKind  byte

	// Flow control (flowcontrol.go): the contiguous prefix of MY stream the
	// peer has acknowledged. Monotone within an incarnation.
	acked uint64

	// Stability (stability.go): stable is S, the prefix of the peer's stream
	// known received by all members — gcStable is its one writer and has
	// released every buffer at or below it; on the own row it is also the
	// boundary of the send buffer. roundMin is M, the minimum contiguous
	// prefix among the current round's voters.
	stable   uint64
	roundMin uint64

	// Membership (membership.go): failure-detector evidence.
	lastHeard sim.Time
	suspected bool
}

func newRelMcast(s *Stack) *relMcast {
	rm := &relMcast{
		s:           s,
		outQLimit:   maxQueuedBytes,
		sendBuf:     make(map[uint64][]byte),
		peers:       make(map[NodeID]*peerState),
		tokens:      float64(s.maxPacket * 2),
		creditLimit: creditsPerDest,
	}
	for _, m := range s.cfg.Members {
		rm.peers[m] = &peerState{id: m, recvNext: 1, repairTarget: m}
	}
	rm.self = rm.peers[s.cfg.Self]
	return rm
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
	m.Data = poison(m.Data)
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
	b = poison(b)
	if rm.freeChunks.Len() >= maxFreeChunks {
		rm.freeChunks.Discard()
		return
	}
	rm.freeChunks.Put(b)
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
	b = poison(b)
	switch {
	case rm.s.stopped:
	case rm.freeBodies.Len() >= maxFreeBodies:
		rm.freeBodies.Discard()
	default:
		rm.freeBodies.Put(b)
	}
}

// poison empties a buffer on its way back to a free list. Race builds
// (poisonRecycled) first overwrite its whole capacity with 0xFF, so a reader
// that kept the bytes past their owner's recycle sees garbage.
func poison(b []byte) []byte {
	if poisonRecycled {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xFF
		}
	}
	return b[:0]
}

func (rm *relMcast) peer(id NodeID) *peerState {
	p := rm.peers[id]
	if p == nil {
		p = &peerState{id: id, recvNext: 1, repairTarget: id}
		rm.peers[id] = p
	}
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
		if !rm.creditOK(c.seq) {
			rm.noteBlocked()
			rm.noteCreditStall()
			return // wait for gossip to advance the lagging destination
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
		rm.sendBuf[c.seq] = c.wire
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
	rm.creditBlocked = false
}

func (rm *relMcast) refillTokens() {
	now := rm.s.rt.Now()
	dt := now - rm.lastRefill
	if dt <= 0 {
		return
	}
	rm.lastRefill = now
	burst := float64(max(2*rm.s.maxPacket, int(rm.s.cfg.RateBps/50)))
	rm.tokens += float64(rm.s.cfg.RateBps) * dt.Seconds()
	if rm.tokens > burst {
		rm.tokens = burst
	}
}

func (rm *relMcast) scheduleRateTimer(need int) {
	if rm.rateTimer != nil {
		return
	}
	deficit := float64(need) - rm.tokens
	wait := sim.FromSeconds(deficit / float64(rm.s.cfg.RateBps))
	if wait < sim.Microsecond {
		wait = sim.Microsecond
	}
	rm.rateTimer = rm.s.rt.Schedule(wait, func() {
		rm.rateTimer = nil
		rm.drain()
	})
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
// filtering, FIFO advance, gap detection.
func (rm *relMcast) onData(m *dataMsg) {
	ps := rm.peer(m.Sender)
	if ps.excluded || m.Seq < ps.recvNext {
		rm.recycleMsg(m)
		return
	}
	if _, dup := ps.recvBuf[m.Seq]; dup {
		rm.recycleMsg(m)
		return
	}
	if ps.recvBuf == nil {
		ps.recvBuf = make(map[uint64]*dataMsg)
	}
	ps.recvBuf[m.Seq] = m
	if m.Seq > ps.maxSeen {
		ps.maxSeen = m.Seq
	}
	for {
		next, ok := ps.recvBuf[ps.recvNext]
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
	if ps.nackTimer != nil {
		return
	}
	ps.nackTimer = rm.s.rt.Schedule(rm.s.cfg.NackDelay, func() {
		ps.nackTimer = nil
		rm.repairGaps(ps)
	})
}

// repairGaps sends a NACK listing missing ranges and re-arms while gaps
// persist (receiver-initiated repair).
func (rm *relMcast) repairGaps(ps *peerState) {
	if rm.s.stopped || ps.excluded || ps.recvNext > ps.maxSeen {
		return
	}
	var ranges []seqRange
	var from uint64
	inGap := false
	for seq := ps.recvNext; seq <= ps.maxSeen && len(ranges) < 16; seq++ {
		_, have := ps.recvBuf[seq]
		if !have && !inGap {
			inGap = true
			from = seq
		}
		if have && inGap {
			inGap = false
			ranges = append(ranges, seqRange{From: from, To: seq - 1})
		}
	}
	if inGap && len(ranges) < 16 {
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
	ps.nackTimer = rm.s.rt.Schedule(rm.s.cfg.RetransPeriod, func() {
		ps.nackTimer = nil
		rm.repairGaps(ps)
	})
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
		rm.repairGaps(ps)
	}
}

// onNack serves retransmissions from the send buffer (own stream) or the
// receive buffer (relaying another member's stream during flush). A
// retransmission of an own chunk is the stored datagram itself, which Send
// copies; a relayed one is marshalled into the stack's scratch buffer.
func (rm *relMcast) onNack(src NodeID, m *nackMsg) {
	if m.Target == rm.s.cfg.Self {
		for _, r := range m.Ranges {
			for seq := r.From; seq <= r.To; seq++ {
				wire, ok := rm.sendBuf[seq]
				if !ok {
					rm.s.stats.NackMisses++
					continue
				}
				rm.s.stats.Retransmits++
				rm.s.rt.Charge(costPerRetrans)
				rm.s.transmitTo(src, wire)
			}
		}
		return
	}
	ps := rm.peers[m.Target]
	if ps == nil {
		return
	}
	for _, r := range m.Ranges {
		for seq := r.From; seq <= r.To; seq++ {
			dm, ok := ps.recvBuf[seq]
			if !ok {
				rm.s.stats.NackMisses++
				continue
			}
			rm.s.stats.Retransmits++
			rm.s.rt.Charge(costPerRetrans)
			rm.s.transmitTo(src, dm.marshal(rm.s.wire[:0]))
		}
	}
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
// its stream, unblocking the sequencer's uniform-delivery gate (and its
// credit window) without waiting for the next stability gossip. upto is the
// announcement's own last chunk: the FIFO cursor has not advanced past the
// message being handed up yet, so contiguous() alone would leave the latest
// batch un-acked.
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
	for seq := from; seq <= upto; seq++ {
		if m, ok := ps.recvBuf[seq]; ok {
			delete(ps.recvBuf, seq)
			rm.recycleMsg(m)
		}
	}
	if ps != rm.self {
		return
	}
	for seq := from; seq <= upto; seq++ {
		if wire, ok := rm.sendBuf[seq]; ok {
			rm.sendBufBytes -= len(wire)
			delete(rm.sendBuf, seq)
			rm.recycleChunk(wire)
		}
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
	for seq, m := range ps.recvBuf {
		delete(ps.recvBuf, seq)
		rm.recycleMsg(m)
	}
	ps.recvNext = upto + 1
	ps.maxSeen = upto
	ps.stable = upto
	ps.roundMin = upto
	ps.excluded = false
	ps.repairTarget = p
	if ps != rm.self {
		// Seed the fresh incarnation's credit cursor at my stable prefix:
		// its join targets cover at least everything stable, so this is a
		// safe lower bound of the ack its first gossip will carry —
		// without it a rejoin would stall the sender for a gossip period.
		rm.creditAck(p, rm.self.stable)
	}
	rm.dropPartial(ps)
	if ps.nackTimer != nil {
		ps.nackTimer.Cancel()
		ps.nackTimer = nil
	}
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
	for seq, wire := range rm.sendBuf {
		delete(rm.sendBuf, seq)
		rm.recycleChunk(wire)
	}
	rm.sendBufBytes = 0
	rm.sendSeq = 0
	for _, c := range rm.outQ[rm.outHead:] {
		rm.recycleChunk(c.wire)
	}
	clear(rm.outQ)
	rm.outQ, rm.outHead = rm.outQ[:0], 0
	rm.outQBytes = 0
	// The new stream renumbers from 1: every old acknowledgement cursor
	// would grant far too much credit against it.
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
		ps.recvBuf = nil
		ps.body = nil
		if ps.nackTimer != nil {
			ps.nackTimer.Cancel()
			ps.nackTimer = nil
		}
	}
	rm.sendBuf = nil
	rm.sendBufBytes = 0
	rm.outQ, rm.outHead = nil, 0
	rm.outQBytes = 0
	rm.freeMsgs.Drop()
	rm.freeChunks.Drop()
	rm.freeBodies.Drop()
	if rm.rateTimer != nil {
		rm.rateTimer.Cancel()
		rm.rateTimer = nil
	}
}

// excludePeer truncates a crashed member's stream beyond the flush target
// and stops expecting traffic from it.
func (rm *relMcast) excludePeer(p NodeID, upto uint64) {
	ps := rm.peer(p)
	ps.excluded = true
	ps.acked = 0 // excluded members never gate, and a fresh incarnation starts from zero credit
	for seq := upto + 1; seq <= ps.maxSeen; seq++ {
		if m, ok := ps.recvBuf[seq]; ok {
			delete(ps.recvBuf, seq)
			rm.recycleMsg(m)
		}
	}
	if ps.maxSeen > upto {
		ps.maxSeen = upto
	}
	rm.dropPartial(ps)
	if ps.nackTimer != nil {
		ps.nackTimer.Cancel()
		ps.nackTimer = nil
	}
}
