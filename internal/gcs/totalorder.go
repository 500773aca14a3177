package gcs

import "sort"

// totalOrder implements the fixed sequencer protocol (Section 3.4): the
// first member of the current view issues global sequence numbers for
// application messages; all members buffer and deliver messages according to
// those numbers. Sequencing assignments travel through the reliable
// multicast layer as messages of the sequencer's own stream — which is why
// the sequencer multicasts far more messages than other members and is the
// first to exhaust its buffer share when stability stalls (Section 5.3).
type totalOrder struct {
	s *Stack

	nextGlobal  uint64 // sequencer only: next number to assign
	maxAssigned uint64
	nextDeliver uint64 // all members: delivered up to here

	// msgs is the message table: one record per in-flight message, from
	// whichever of its body and its assignment arrives first until forget.
	// It stays a Go map because its keys are not one window: a readmitted
	// sender's new stream restarts at msgID 1 while records of its old
	// incarnation can still wait for delivery.
	//
	// order is its only second index, global -> message, holding exactly the
	// assigned records. Those globals are one window above nextDeliver — at
	// most assignWindow wide at the sequencer — so order is a seqRing, and a
	// global seqWindowCap or more past nextDeliver is refused on arrival.
	msgs  map[msgKey]msgState
	order seqRing[msgKey]

	// renumberedTo is the highest global produced by install-time
	// renumbering: those assignments are flush-agreed (every survivor made
	// them identically from flush-covered state) but carry no announcement
	// provenance, so the next sequencer handover anchors its renumbering
	// base here when the dying sequencer assigned nothing beyond it.
	renumberedTo uint64
	// handover is set from the view switch that drops the sequencer until
	// onInstall: the new sequencer's nextGlobal is not anchored yet, so its
	// own chunks that unfreeze delivers wait for onInstall to number them.
	handover bool

	// deferred holds messages the sequencer declined to assign because the
	// assigned-but-undelivered span hit assignWindow; they are assigned in
	// arrival order as delivery catches up.
	deferred []msgKey
	// installBacklog counts deferred's leading keys that the last install
	// offered: old-view messages a joiner admitted there can never receive
	// through the streams, so the sequencer withholds joinSync until they
	// are numbered (membership.sendJoinSync).
	installBacklog int

	// Optimistic delivery bookkeeping: arrival positions (msgState.optIdx),
	// compared with the final order to count mispredictions.
	optSeq     uint64
	lastOptFin uint64

	// Uniform delivery at the sequencer: a sequencer that delivered a
	// self-assigned global and then crashed before any survivor received
	// the announcement would leave a committed suffix the survivors
	// renumber differently (a non-prefix divergence). So self-assigned
	// globals deliver only once their announcement batch is held by a
	// majority of the view — the sequencer plus enough ack cursors at or
	// past the batch's last stream chunk. Non-sequencer members stay
	// prompt: a delivery there implies the announcement already reached
	// two members (itself and the sequencer), the majority for n<=3; for
	// n>=5 that is NOT a majority, and the window is real: the adversarial
	// explorer (internal/explore) reproduces it at n=5 with a single
	// partition isolating the sequencer plus one prompt deliverer — the
	// pair delivers and commits on an announcement only they hold, and the
	// majority side renumbers (cmd/faultsim/testdata's s5-non-prefix
	// repro, guarded by TestResidualWindowReproduces; no simultaneous
	// double crash is needed). The window stays open by design: closing it
	// means every member gating delivery on majority acks, serializing an
	// extra round trip into the common path. internal/campaign keeps the
	// sequencer out of partition minorities precisely because this
	// divergence is accepted; the explorer's genome deliberately does not,
	// which is how it cornered the window.
	announceSafe      uint64 // self-assigned globals <= this are majority-held
	selfAssignedFloor uint64 // globals <= this predate this sequencer stint
	unacked           []announceBatch

	batch          []seqAssign
	batchScheduled bool
	// scratch is the reusable marshal buffer for assignment batches: cast
	// copies the payload into stream chunks before returning, so the
	// buffer is free again by the next flush. assignScratch is the
	// matching decode buffer for incoming batches, consumed synchronously
	// by onAssigns. flushFn is the batch-flush job bound once.
	scratch       []byte
	assignScratch []seqAssign
	flushFn       func()
}

type msgKey struct {
	sender NodeID
	msgID  uint64 // sequence number of the message's first chunk
}

// msgState is the whole of what the stack knows about one in-flight message.
// The body and the assignment arrive independently and in either order; the
// record exists while either is present and leaves through forget.
type msgState struct {
	// The body, written by onAppData: a free-list buffer that tryDeliver
	// hands back. held is false while only the assignment has arrived.
	held bool
	// waited is set the first time the sequencer defers the message
	// (offer), which counts it in AssignDeferred once, however often it
	// waits.
	waited  bool
	data    []byte
	lastSeq uint64 // sequence number of the message's last chunk

	// global is the total-order number, 0 while unassigned; order[global]
	// points back at the record.
	global uint64

	// Provenance of a remote assignment: the member that announced it and
	// the last stream chunk of the announcement batch that carried it
	// (chunkSeq is 0 for a self-assigned or install-renumbered global). A
	// view change that drops the announcer uses it to roll back assignments
	// carried by chunks beyond the flush-agreed target — chunks a strict
	// subset of the survivors may have processed mid-freeze — so every
	// survivor renumbers from the same flush-agreed base (see
	// rollbackUnagreed and onInstall).
	announcer NodeID
	chunkSeq  uint64

	// optIdx is the tentative-arrival position, 0 unless optimistic
	// delivery is enabled.
	optIdx uint64
}

// announceBatch tracks one multicast assignment batch awaiting majority
// acknowledgement: delivery of self-assigned globals up to maxGlobal is held
// until the sequencer's stream is acked through lastSeq by a majority.
type announceBatch struct {
	lastSeq   uint64 // last stream chunk of the batch's cast
	maxGlobal uint64 // highest global the batch announces
}

func newTotalOrder(s *Stack) *totalOrder {
	to := &totalOrder{
		s:    s,
		msgs: make(map[msgKey]msgState),
	}
	to.flushFn = to.flushBatch
	return to
}

// record notes that key holds global g, announced by announcer in stream
// chunk chunkSeq (0 for an assignment made locally). A global that would
// widen order past seqWindowCap is refused — nothing is recorded — and
// counted as a parse error.
func (to *totalOrder) record(key msgKey, g uint64, announcer NodeID, chunkSeq uint64) {
	if !to.order.put(g, key) {
		to.s.stats.ParseErrors++
		return
	}
	m := to.msgs[key]
	m.global, m.announcer, m.chunkSeq = g, announcer, chunkSeq
	to.msgs[key] = m
	if g > to.maxAssigned {
		to.maxAssigned = g
	}
}

// unassign takes key's global back (a rolled-back announcement). The body, if
// it arrived, stays for the renumbering to come.
func (to *totalOrder) unassign(key msgKey) {
	m := to.msgs[key]
	to.order.del(m.global)
	if !m.held {
		delete(to.msgs, key)
		return
	}
	m.global, m.announcer, m.chunkSeq = 0, 0, 0
	to.msgs[key] = m
}

// discard forgets a message that will never be delivered here and recycles
// its body, if the body arrived.
func (to *totalOrder) discard(key msgKey) {
	if m := to.msgs[key]; m.held {
		to.s.rm.recycleBody(m.data)
	}
	to.forget(key)
}

// forget drops everything known about key: the one way a message leaves the
// table, whether delivered, skipped by a catch-up cursor or purged with its
// sender. An unassigned record has global 0, which order never holds.
func (to *totalOrder) forget(key msgKey) {
	to.order.del(to.msgs[key].global)
	delete(to.msgs, key)
}

// onAppData receives a complete (reassembled) application message from the
// reliable layer, in per-sender FIFO order.
//
// While a view change is in flight (the reliable layer is frozen) the
// sequencer must NOT assign: the flush targets were snapshotted from the
// members' acks, so a chunk that arrives after the ack — say from the very
// member being excluded — can lie beyond them. Assigning it would broadcast
// an order for a body the other survivors repaired past and can never
// obtain (the exclusion drops it), wedging their delivery forever.
// Deferred messages are assigned at install, after the beyond-target purge.
func (to *totalOrder) onAppData(sender NodeID, msgID, lastSeq uint64, data []byte) {
	key := msgKey{sender: sender, msgID: msgID}
	m := to.msgs[key]
	m.held, m.data, m.lastSeq = true, data, lastSeq
	if to.s.onOpt != nil {
		to.optSeq++
		m.optIdx = to.optSeq
	}
	to.msgs[key] = m
	if to.s.onOpt != nil {
		// Optimistic total order: tentatively deliver in spontaneous
		// (arrival) order, before the sequencer's assignment.
		to.s.stats.Optimistic++
		to.s.onOpt(OptDelivery{Sender: sender, MsgID: msgID, Payload: data})
	}
	if to.s.IsSequencer() && to.msgs[key].global == 0 && !to.s.rm.frozen && !to.handover {
		to.offer(key)
	}
	to.tryDeliver()
}

// offer is the one gate in front of assign for a message the sequencer has
// not numbered — on arrival, from the backlog and at install. It assigns key
// while the assign window has room; otherwise delivery has fallen
// assignWindow behind assignment, so issuing more numbers would only grow
// every member's order buffers, and key joins deferred until delivery
// catches up (drainDeferred). It reports whether key was assigned.
func (to *totalOrder) offer(key msgKey) bool {
	if !to.assignWindowFull() {
		to.assign(key)
		return true
	}
	to.deferred = append(to.deferred, key)
	if m := to.msgs[key]; !m.waited {
		m.waited = true
		to.msgs[key] = m
		to.s.stats.AssignDeferred++
	}
	return false
}

// assignWindow caps the sequencer's assigned-but-undelivered span: when
// nextGlobal runs this far ahead of local delivery, further assignments are
// deferred until delivery catches up, throttling the total-order pipeline
// instead of buffering unbounded order state at every member.
const assignWindow = 1024

// assignWindowFull reports whether the sequencer's assigned-but-undelivered
// span has reached assignWindow.
func (to *totalOrder) assignWindowFull() bool {
	return to.nextGlobal >= to.nextDeliver+assignWindow
}

// drainDeferred assigns deferred messages while the window has room. Runs
// after every delivery advance; a member that lost the sequencer role drops
// its backlog (the new sequencer orders those messages on arrival or at
// install).
func (to *totalOrder) drainDeferred() {
	if len(to.deferred) == 0 {
		return
	}
	if !to.s.IsSequencer() {
		to.deferred = to.deferred[:0]
		to.installBacklog = 0
		return
	}
	if to.s.rm.frozen {
		return
	}
	// offer refills deferred in place: it appends at most one key per key
	// read, so it never overwrites one not yet read.
	backlog := to.deferred
	to.deferred = backlog[:0]
	for i, key := range backlog {
		m := to.msgs[key]
		if m.global != 0 || !m.held || !to.s.view.Contains(key.sender) {
			continue // ordered at install, or purged with an excluded sender
		}
		if !to.offer(key) {
			to.deferred = append(to.deferred, backlog[i+1:]...)
			to.installBacklog = max(0, to.installBacklog-i)
			return
		}
	}
	to.installBacklog = 0
}

// assign issues the next global sequence number and batches the
// announcement.
func (to *totalOrder) assign(key msgKey) {
	to.s.rt.Charge(costPerAssign)
	g := to.nextGlobal + 1
	to.nextGlobal = g
	to.record(key, g, 0, 0)
	to.batch = append(to.batch, seqAssign{Sender: key.sender, Seq: key.msgID, Global: g})
	if !to.batchScheduled {
		to.batchScheduled = true
		to.s.rt.StartJob(0, to.flushFn)
	}
}

// flushBatch multicasts accumulated assignments as one message of the
// sequencer's stream.
func (to *totalOrder) flushBatch() {
	to.batchScheduled = false
	if len(to.batch) == 0 || to.s.stopped {
		return
	}
	maxGlobal := to.batch[len(to.batch)-1].Global
	payload := marshalAssigns(to.scratch, to.batch)
	to.scratch = payload
	to.batch = to.batch[:0]
	to.s.rm.cast(payloadSeq, payload)
	// cast advanced sendSeq past every chunk of this announcement; the
	// batch's globals stay undeliverable here until a majority acks them.
	to.unacked = append(to.unacked, announceBatch{lastSeq: to.s.rm.sendSeq, maxGlobal: maxGlobal})
	to.advanceAnnounceSafe() // a single-member majority is already held
}

// advanceAnnounceSafe pops announcement batches that reached a majority and
// releases the self-assigned globals they cover. Driven by assign-acks, by
// gossip horizon advances (the fallback ack channel), and by flushBatch
// itself (a one-member view needs no remote ack).
func (to *totalOrder) advanceAnnounceSafe() {
	if len(to.unacked) == 0 {
		return
	}
	if !to.s.IsSequencer() {
		// Lost the role in a view change; the install path re-anchored the
		// floor and the new sequencer re-announces anything unordered.
		to.unacked = to.unacked[:0]
		return
	}
	n := 0
	for n < len(to.unacked) && to.majorityHolds(to.unacked[n].lastSeq) {
		to.announceSafe = max(to.announceSafe, to.unacked[n].maxGlobal)
		n++
	}
	if n > 0 {
		// Shift down rather than reslice, so flushBatch's append keeps
		// reusing the array.
		to.unacked = to.unacked[:copy(to.unacked, to.unacked[n:])]
		to.tryDeliver()
	}
}

// majorityHolds reports whether a majority of the current view (counting
// self) has acknowledged the sequencer's stream through lastSeq.
func (to *totalOrder) majorityHolds(lastSeq uint64) bool {
	need := len(to.s.view.Members)/2 + 1
	have := 1 // self: own chunks are held at send time
	for _, p := range to.s.view.Members {
		if p == to.s.cfg.Self {
			continue
		}
		if to.s.rm.peer(p).acked >= lastSeq {
			have++
			if have >= need {
				return true
			}
		}
	}
	return have >= need
}

// onAssigns records ordering announcements from the sequencer. announcer and
// chunkSeq identify the stream chunk that carried the batch: each recorded
// assignment remembers them so a view change that drops the announcer can
// roll back the assignments its survivors did not flush-agree on.
func (to *totalOrder) onAssigns(announcer NodeID, chunkSeq uint64, assigns []seqAssign) {
	for _, a := range assigns {
		key := msgKey{sender: a.Sender, msgID: a.Seq}
		m := to.msgs[key]
		if a.Global <= to.nextDeliver || m.global != 0 {
			// Already delivered (the sequencer delivers before its own
			// announcement makes the loopback trip, and its record is
			// forgotten at delivery), or already recorded: re-adding
			// would leak a record and an order entry forever.
			if a.Global <= to.nextDeliver && m.global == 0 {
				// The global was passed over without a local delivery —
				// a recovery catch-up cursor skipped it (the snapshot
				// covers it). The body can never deliver here; drop it
				// or the table would pin it for the whole run.
				to.discard(key)
			}
			continue
		}
		if a.Global-to.nextDeliver >= seqWindowCap {
			to.s.stats.ParseErrors++ // no sequencer numbers this far ahead
			continue
		}
		to.record(key, a.Global, announcer, chunkSeq)
	}
	to.tryDeliver()
}

// rollbackUnagreed undoes assignments announced by a member leaving the view
// in stream chunks beyond its flush-agreed target. The flush targets are
// snapshotted from the members' acks, but the reliable layer keeps handing up
// announcement chunks while frozen — so a strict subset of the survivors can
// have processed the dying sequencer's final batches and raised maxAssigned
// past the others'. Every chunk at or below the target is held (and processed)
// by every survivor before install; every chunk beyond it is rolled back
// identically everywhere, so the renumbering base in onInstall agrees.
//
// The rolled-back assignments are provably undelivered: a beyond-target chunk
// can only have arrived after this member's flush ack, i.e. while the layer
// was frozen, and tryDeliver never runs frozen. They also form a suffix of
// the assigned globals — announcements travel FIFO on the announcer's stream
// with monotonically increasing globals — so removal leaves no holes.
func (to *totalOrder) rollbackUnagreed(announcer NodeID, target uint64) {
	var rollback []msgKey
	for key, m := range to.msgs {
		if m.announcer == announcer && m.chunkSeq > target {
			rollback = append(rollback, key)
		}
	}
	if len(rollback) == 0 {
		return
	}
	// The records are collected in map order, but the removals commute:
	// each takes back its own record's global, and nothing reads the table
	// in between.
	for _, key := range rollback {
		to.unassign(key)
	}
	// Recompute the assignment high-water mark from what survived: delivery
	// is contiguous, so everything delivered is <= nextDeliver and the rest
	// is keyed in order, whose top key is the highest global still held.
	to.maxAssigned = to.nextDeliver
	if g, ok := to.order.top(); ok && g > to.maxAssigned {
		to.maxAssigned = g
	}
}

// tryDeliver hands messages to the application in global sequence order,
// whenever both the order assignment and the message body are present. It
// pauses while a view change is in flight: a delivery made mid-flush could
// cover a message the installed view discards (view synchrony would break —
// this member would have delivered something the others never can).
// Installation resumes delivery.
//
// The body is lent to the application for the length of the upcall and
// returns to the reliable layer's free list as soon as the upcall comes
// back. Bodies dropped undelivered — purgeSender, skipTo, the catch-up skip
// in onAssigns — go back the same way (discard); only a halted stack, which
// keeps no free list, leaves them to the collector.
func (to *totalOrder) tryDeliver() {
	if to.s.rm.frozen {
		return
	}
	for {
		key, ok := to.order.get(to.nextDeliver + 1)
		if !ok {
			break
		}
		m := to.msgs[key]
		if !m.held {
			break
		}
		g := to.nextDeliver + 1
		if to.s.IsSequencer() && g > to.selfAssignedFloor && g > to.announceSafe {
			// Uniform delivery: wait for a majority to hold the
			// announcement.
			to.s.stats.UniformStalls++
			break
		}
		to.nextDeliver++
		// The reliable layer never hands the same message up twice (its
		// FIFO cursor filters duplicates), so the record has served its
		// purpose: forgetting it keeps the table sized to in-flight
		// messages instead of the whole run.
		to.forget(key)
		if m.optIdx != 0 {
			if m.optIdx < to.lastOptFin {
				to.s.stats.Mispredicted++
			} else {
				to.lastOptFin = m.optIdx
			}
		}
		to.s.deliver(Delivery{Global: to.nextDeliver, Sender: key.sender, Payload: m.data})
		to.s.rm.recycleBody(m.data)
	}
	to.drainDeferred()
}

// purgeSender drops unassigned pending messages of a sender beyond its flush
// target: other members may not have them, so they can never be ordered. The
// optimistic consumer is told so it can cancel speculative state. Used for
// members excluded from the view and for fresh incarnations readmitted by a
// recovery join (whose old-stream tail dies with the old incarnation). The
// consumer schedules work per discard, so they go in message order.
func (to *totalOrder) purgeSender(sender NodeID, upto uint64) {
	var purged []msgKey
	for key, m := range to.msgs {
		if key.sender == sender && m.held && m.global == 0 && m.lastSeq > upto {
			purged = append(purged, key)
		}
	}
	sortKeys(purged)
	for _, key := range purged {
		m := to.msgs[key]
		to.forget(key)
		if to.s.onOptDiscard != nil {
			to.s.onOptDiscard(OptDelivery{Sender: key.sender, MsgID: key.msgID, Payload: m.data})
		}
		to.s.rm.recycleBody(m.data)
	}
}

// skipTo advances the delivery cursor to a recovery catch-up sequence: every
// global at or below seq is covered by the database snapshot the joiner
// transfers, so its local copy (if any arrived) is dropped, not delivered.
func (to *totalOrder) skipTo(seq uint64) {
	for _, key := range to.order.visit(to.nextDeliver+1, seq) {
		to.discard(key)
	}
	if seq > to.nextDeliver {
		to.nextDeliver = seq
	}
	if seq > to.maxAssigned {
		to.maxAssigned = seq
	}
	to.tryDeliver()
}

// releaseAll drops ordering state and buffered message bodies at halt.
func (to *totalOrder) releaseAll() {
	to.msgs = nil
	to.order.release()
	to.batch = nil
	to.deferred = nil
	to.installBacklog = 0
	to.unacked = nil
}

// onInstall re-establishes total order across a view change. When the old
// sequencer left the view, all members deterministically order the leftover
// messages — those fully covered by the flush targets but never assigned —
// and the new sequencer takes over numbering. Messages from excluded members
// beyond the flush target are discarded identically everywhere.
//
// The renumbering base is flush-agreed state, not local processing progress:
// local maxAssigned can run ahead of the other survivors' in two ways, both
// from chunks processed while frozen. First, the dying sequencer's final
// announcement batches can land at a strict subset of the survivors after
// the flush snapshot — rollbackUnagreed removes those before install.
// Second, a member that installs late can have processed the NEW sequencer's
// first post-install announcements, which are numbered relative to a
// renumbering this member has not performed yet; anchoring its own
// renumbering past them would put the same leftovers at different globals
// than everyone else (the explorer's length-mismatch repro). So the base is
// computed from agreed state only: the delivery floor, the previous
// install's renumbering floor, and the old sequencer's flush-covered
// assignments — never from announcements by other members.
//
// A joined-but-unsynced member (admitted by a recovery view change, catch-up
// sequence not yet learned) must not take part in the renumbering: it missed
// the old view's assignments, so its maxAssigned disagrees with the
// survivors'. Its copy of the leftovers stays pending; they are covered by
// the snapshot its donor exports (the donor delivers them before reaching
// the joiner's catch-up sequence), and the skipTo at sync discards them.
func (to *totalOrder) onInstall(oldSequencer NodeID, oldSequencerGone bool, targets map[NodeID]uint64) {
	to.handover = false
	if !to.s.joinSynced {
		return
	}
	if oldSequencerGone {
		// Flush-agreed renumbering base: every survivor holds exactly the
		// same flush-covered chunks of the old sequencer's stream (the
		// install waited for repair to the targets, and rollbackUnagreed
		// dropped everything beyond them), so the maximum over its
		// recorded assignments — floored by delivery progress and by the
		// previous handover's renumbering — is identical everywhere.
		base := to.nextDeliver
		if to.renumberedTo > base {
			base = to.renumberedTo
		}
		for _, m := range to.msgs {
			if m.chunkSeq != 0 && m.announcer == oldSequencer && m.global > base {
				//lint:simdeterminism-ok max fold over map values is commutative
				base = m.global
			}
		}
		var leftovers []msgKey
		for key, m := range to.msgs {
			if !m.held || m.global != 0 {
				continue
			}
			// Beyond-target messages of excluded or readmitted members
			// were already purged by the installer (purgeSender); what
			// remains from old-view members and is fully covered by a
			// flush target is a leftover to renumber. Surviving members'
			// messages beyond the target stay pending; the new sequencer
			// assigns them below or on arrival.
			if t, hadTarget := targets[key.sender]; hadTarget && m.lastSeq <= t {
				leftovers = append(leftovers, key)
			}
		}
		sortKeys(leftovers)
		for _, key := range leftovers {
			base++
			to.record(key, base, 0, 0)
		}
		to.renumberedTo = base
		if to.nextGlobal < to.maxAssigned {
			to.nextGlobal = to.maxAssigned
		}
		// Everything renumbered here (and everything the old sequencer
		// announced) is flush-guaranteed at every survivor, so the new
		// sequencer's uniformity gate restarts above it. Old unacked
		// batches are void — their announcer is gone.
		to.selfAssignedFloor = to.maxAssigned
		to.announceSafe = to.maxAssigned
		to.unacked = to.unacked[:0]
	}
	if to.s.IsSequencer() {
		// Offer everything still unassigned from in-view senders, in
		// deterministic order: the messages that arrived while assignment
		// was frozen mid-change, the backlog the assign window deferred,
		// plus — after a sequencer replacement — the pending messages
		// nobody ordered. rest covers every key deferred still holds that
		// drainDeferred would assign, so it replaces the backlog.
		var rest []msgKey
		for key, m := range to.msgs {
			if m.held && m.global == 0 && to.s.view.Contains(key.sender) {
				rest = append(rest, key)
			}
		}
		sortKeys(rest)
		to.deferred = to.deferred[:0]
		for _, key := range rest {
			to.offer(key)
		}
		to.installBacklog = len(to.deferred)
	}
	to.tryDeliver()
}

// sortKeys orders message keys by (sender, msgID).
func sortKeys(keys []msgKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sender != keys[j].sender {
			return keys[i].sender < keys[j].sender
		}
		return keys[i].msgID < keys[j].msgID
	})
}
