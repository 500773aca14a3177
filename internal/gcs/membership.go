package gcs

import (
	"sort"

	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// Membership / view synchrony states.
const (
	membStable   = iota // normal operation
	membFlushing        // received a proposal, frozen, acked
	membDeciding        // received the decision, repairing to flush targets
)

// membership maintains views (Section 3.4): a heartbeat-based failure
// detector triggers a coordinator-driven agreement on the next view. The
// protocol imposes negligible overhead during stable operation. View changes
// flush the reliable layer so that all surviving members deliver the same
// set of messages before the new view is installed (view synchrony), and the
// sequencer is replaced if it failed.
//
// The failure detector's per-member evidence lives in the peer table:
// peerState.lastHeard and peerState.suspected.
type membership struct {
	s *Stack

	lastSent sim.Time
	state    int

	// Coordinator state.
	proposing   bool
	proposal    *proposeMsg
	acks        map[NodeID]*flushAckMsg
	decision    *decideMsg
	installAcks map[NodeID]bool
	retryTimer  runtimeapi.Timer

	// Member state.
	pendingDecide *decideMsg
	// flushProposer is the coordinator of the view change this member is
	// frozen for; if it dies mid-change the member abandons the change so
	// the next coordinator's proposal is not ignored.
	flushProposer NodeID

	// Join (recovery) state. pendingJoiners are restarted nodes asking for
	// admission; pendingJoinSync buffers a catch-up announcement that
	// arrived before this node finished installing its join view;
	// joinTicking guards against running two join-request tick chains.
	pendingJoiners  map[NodeID]bool
	pendingJoinSync *joinSyncMsg
	joinTicking     bool
}

func newMembership(s *Stack) *membership {
	return &membership{
		s:              s,
		pendingJoiners: make(map[NodeID]bool),
	}
}

// startTimers begins failure detection and heartbeating.
func (mb *membership) startTimers() {
	mb.restartDetector()
	mb.scheduleFD()
	mb.scheduleHB()
}

func (mb *membership) scheduleFD() {
	mb.s.rt.Schedule(mb.s.cfg.FailTimeout/4, func() {
		mb.fdTick()
		if !mb.s.stopped {
			mb.scheduleFD()
		}
	})
}

// heartbeatPeriod paces liveness heartbeats.
const heartbeatPeriod = 100 * sim.Millisecond

func (mb *membership) scheduleHB() {
	mb.s.rt.Schedule(heartbeatPeriod, func() {
		mb.hbTick()
		if !mb.s.stopped {
			mb.scheduleHB()
		}
	})
}

// heard records liveness evidence for a peer. Traffic from outside the member
// universe (a relay from another group) has no row and needs none.
func (mb *membership) heard(p NodeID) {
	if ps := mb.s.rm.peers[p]; ps != nil {
		ps.lastHeard = mb.s.rt.Now()
	}
}

// restartDetector begins failure detection over a new view: nobody is
// suspected and every member was heard from just now.
func (mb *membership) restartDetector() {
	for _, ps := range mb.s.rm.peers {
		ps.suspected = false
	}
	now := mb.s.rt.Now()
	for _, p := range mb.s.view.Members {
		mb.s.rm.peer(p).lastHeard = now
	}
}

// sentSomething suppresses the next heartbeat if other traffic flowed.
func (mb *membership) sentSomething() {
	mb.lastSent = mb.s.rt.Now()
}

// dataProgress is invoked by the reliable layer on every stream advance so
// a pending view installation can re-check its flush condition.
func (mb *membership) dataProgress() {
	if mb.state == membDeciding {
		mb.checkInstall()
	}
}

// hbTick emits a heartbeat when the member has been silent.
func (mb *membership) hbTick() {
	if mb.s.stopped {
		return
	}
	now := mb.s.rt.Now()
	if now-mb.lastSent >= heartbeatPeriod {
		hb := heartbeatMsg{ViewID: mb.s.view.ID}
		mb.s.transmit(hb.marshal(mb.s.wire[:0]))
		mb.lastSent = now
	}
}

// fdTick suspects members that have been silent beyond the timeout.
func (mb *membership) fdTick() {
	if mb.s.stopped {
		return
	}
	now := mb.s.rt.Now()
	changed := false
	for _, p := range mb.s.view.Members {
		ps := mb.s.rm.peer(p)
		if p == mb.s.cfg.Self || ps.suspected {
			continue
		}
		if now-ps.lastHeard > mb.s.cfg.FailTimeout {
			ps.suspected = true
			changed = true
		}
	}
	// The abandon check runs every tick, not only on fresh suspicions: the
	// flush proposer may have been suspected before its (retransmitted)
	// proposal even arrived, in which case no later tick would ever flag a
	// change while this member sits frozen waiting on a dead coordinator.
	abandoned := false
	if mb.state != membStable && mb.s.rm.peer(mb.flushProposer).suspected {
		// The coordinator of the in-flight view change died mid-change:
		// no decision (or no further retransmission) will ever come from
		// it. Abandon the frozen change so the next coordinator's
		// proposal is acted on rather than dropped by the state gate.
		mb.state = membStable
		mb.pendingDecide = nil
		abandoned = true
		mb.s.stats.FlushAbandons++
	}
	if !changed && !abandoned {
		return
	}
	if mb.quorumLost() {
		// Primary-component rule: this member is on the minority side of
		// a partition. Wedge instead of installing a minority view —
		// committing anything here could diverge from the primary
		// component that keeps running on the other side.
		mb.s.stats.QuorumLosses++
		mb.s.halt()
		return
	}
	mb.maybeInitiate()
}

// quorumLost reports whether, under the primary-component rule, the
// unsuspected members no longer form a strict majority of the current view.
func (mb *membership) quorumLost() bool {
	if !mb.s.cfg.PrimaryComponent {
		return false
	}
	return 2*len(mb.alive()) <= len(mb.s.view.Members)
}

// alive lists current members not suspected, sorted.
func (mb *membership) alive() []NodeID {
	out := make([]NodeID, 0, len(mb.s.view.Members))
	for _, p := range mb.s.view.Members {
		if !mb.s.rm.peer(p).suspected {
			out = append(out, p)
		}
	}
	return out
}

// joinerList returns the pending joiners, sorted, dropping any that made it
// into the current view in the meantime.
func (mb *membership) joinerList() []NodeID {
	out := make([]NodeID, 0, len(mb.pendingJoiners))
	for p := range mb.pendingJoiners {
		if !mb.s.view.Contains(p) || mb.s.rm.peer(p).suspected {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maybeInitiate starts a view change if this member is the lowest-ranked
// live member (the coordinator) and there is something to change: a
// suspected member to exclude or a joiner to admit.
func (mb *membership) maybeInitiate() {
	if mb.state != membStable || mb.proposing {
		return
	}
	alive := mb.alive()
	if len(alive) == 0 || alive[0] != mb.s.cfg.Self {
		return
	}
	joiners := mb.joinerList()
	if len(joiners) == 0 && len(alive) == len(mb.s.view.Members) {
		return
	}
	mb.proposing = true
	mb.proposal = &proposeMsg{
		NewViewID: mb.s.view.ID + 1,
		Proposer:  mb.s.cfg.Self,
		Members:   alive,
		Joiners:   joiners,
	}
	mb.acks = make(map[NodeID]*flushAckMsg)
	mb.installAcks = make(map[NodeID]bool)
	mb.decision = nil
	mb.broadcastProposal()
	mb.armRetry()
}

func (mb *membership) broadcastProposal() {
	wire := mb.proposal.marshal(mb.s.wire[:0])
	for _, p := range mb.proposal.Members {
		if p == mb.s.cfg.Self {
			continue
		}
		if mb.acks[p] == nil {
			mb.s.transmitTo(p, wire)
		}
	}
	// Handle my own proposal locally.
	mb.onPropose(mb.proposal)
}

func (mb *membership) armRetry() {
	if mb.retryTimer != nil {
		return
	}
	mb.retryTimer = mb.s.rt.Schedule(mb.s.cfg.RetransPeriod, func() {
		mb.retryTimer = nil
		mb.retryTick()
	})
}

// retryTick retransmits coordinator messages until everyone progressed. A
// member that dies mid-change must not wedge it: in the flush phase the
// proposal is re-issued without newly suspected members, and in the install
// phase suspected members are given up on (the next view change excludes
// them).
func (mb *membership) retryTick() {
	if mb.s.stopped || !mb.proposing {
		return
	}
	if mb.decision == nil {
		kept := mb.proposal.Members[:0]
		for _, p := range mb.proposal.Members {
			if p == mb.s.cfg.Self || !mb.s.rm.peer(p).suspected {
				kept = append(kept, p)
			}
		}
		mb.proposal.Members = kept
		mb.broadcastProposal()
		mb.checkFlushComplete()
		if mb.decision == nil {
			mb.armRetry()
		}
		return
	}
	allInstalled := true
	wire := mb.decision.marshal(mb.s.wire[:0])
	for _, p := range mb.decision.Members {
		if p == mb.s.cfg.Self || mb.installAcks[p] || mb.s.rm.peer(p).suspected {
			continue
		}
		allInstalled = false
		mb.s.transmitTo(p, wire)
	}
	for _, p := range mb.decision.Joiners {
		if mb.installAcks[p] || mb.s.rm.peer(p).suspected {
			continue
		}
		allInstalled = false
		mb.s.transmitTo(p, wire)
	}
	if allInstalled {
		mb.proposing = false
		return
	}
	mb.armRetry()
}

// onPropose handles a view-change proposal: freeze transmissions and answer
// with the local receive state (the flush snapshot).
func (mb *membership) onPropose(m *proposeMsg) {
	if m.NewViewID <= mb.s.view.ID {
		// Stale: that view is already installed here.
		ack := installedMsg{NewViewID: m.NewViewID}
		mb.s.transmitTo(m.Proposer, ack.marshal(mb.s.wire[:0]))
		return
	}
	if mb.state == membDeciding {
		return // already past the flush phase for a pending view
	}
	mb.state = membFlushing
	mb.flushProposer = m.Proposer
	mb.s.rm.freeze()
	// Members absent from the proposal are the suspected ones.
	present := make(map[NodeID]bool, len(m.Members))
	for _, p := range m.Members {
		present[p] = true
	}
	for _, p := range mb.s.view.Members {
		if !present[p] {
			mb.s.rm.peer(p).suspected = true
		}
	}
	ack := flushAckMsg{NewViewID: m.NewViewID}
	for _, p := range mb.s.view.Members {
		ack.Contig = append(ack.Contig, memberSeq{Member: p, Seq: mb.s.rm.contiguous(p)})
	}
	if m.Proposer == mb.s.cfg.Self {
		mb.onFlushAck(mb.s.cfg.Self, &ack)
	} else {
		mb.s.transmitTo(m.Proposer, ack.marshal(mb.s.wire[:0]))
	}
}

// onFlushAck (coordinator) collects flush snapshots.
func (mb *membership) onFlushAck(src NodeID, m *flushAckMsg) {
	if !mb.proposing || mb.proposal == nil || m.NewViewID != mb.proposal.NewViewID || mb.decision != nil {
		return
	}
	mb.acks[src] = m
	mb.checkFlushComplete()
}

// checkFlushComplete decides once every proposed member answered: compute
// per-sender flush targets — the highest contiguous sequence any survivor
// holds for each old-view stream, and who holds it — and broadcast the
// decision to survivors and joiners alike.
func (mb *membership) checkFlushComplete() {
	if !mb.proposing || mb.decision != nil {
		return
	}
	for _, p := range mb.proposal.Members {
		if mb.acks[p] == nil {
			return
		}
	}
	targets := make([]flushTarget, 0, len(mb.s.view.Members))
	for _, p := range mb.s.view.Members {
		var best uint64
		holder := mb.s.cfg.Self
		for _, q := range mb.proposal.Members {
			ack := mb.acks[q]
			for _, c := range ack.Contig {
				if c.Member == p && c.Seq > best {
					best = c.Seq
					holder = q
				}
			}
		}
		targets = append(targets, flushTarget{Member: p, Seq: best, Holder: holder})
	}
	mb.decision = &decideMsg{
		NewViewID: mb.proposal.NewViewID,
		Proposer:  mb.s.cfg.Self,
		Members:   mb.proposal.Members,
		Joiners:   mb.proposal.Joiners,
		Targets:   targets,
	}
	wire := mb.decision.marshal(mb.s.wire[:0])
	for _, p := range mb.decision.Members {
		if p != mb.s.cfg.Self {
			mb.s.transmitTo(p, wire)
		}
	}
	for _, p := range mb.decision.Joiners {
		mb.s.transmitTo(p, wire)
	}
	mb.onDecide(mb.decision)
	mb.armRetry()
}

// onDecide moves to the repair phase: fetch everything up to the flush
// targets, then install. A node listed as a joiner skips repair entirely —
// it holds no old-view state; the flush targets instead seed its stream
// cursors and the database below them arrives by state transfer.
func (mb *membership) onDecide(m *decideMsg) {
	if m.NewViewID <= mb.s.view.ID {
		ack := installedMsg{NewViewID: m.NewViewID}
		mb.s.transmitTo(m.Proposer, ack.marshal(mb.s.wire[:0]))
		return
	}
	for _, j := range m.Joiners {
		if j == mb.s.cfg.Self {
			mb.installJoin(m)
			return
		}
	}
	if mb.s.joining {
		// A concurrent view change that does not admit this node (it may
		// even still list the dead predecessor as a member): nothing to
		// act on — the join request keeps retrying against the new view.
		return
	}
	if mb.state == membDeciding {
		return
	}
	if mb.state == membStable {
		mb.s.rm.freeze()
	}
	mb.state = membDeciding
	mb.flushProposer = m.Proposer
	mb.pendingDecide = m
	for _, t := range m.Targets {
		if t.Member == mb.s.cfg.Self {
			continue
		}
		mb.s.rm.requestRepairTo(t.Member, t.Seq, t.Holder)
	}
	mb.checkInstall()
}

// checkInstall installs the pending view once every old stream has been
// received up to its flush target. The new view lists the survivors in their
// old relative order followed by the joiners: a joiner can therefore never
// be the sequencer of the view that admits it (it lacks the ordering state),
// while survivor ranks — and with them the sequencer — are untouched.
func (mb *membership) checkInstall() {
	m := mb.pendingDecide
	if m == nil {
		return
	}
	for _, t := range m.Targets {
		if mb.s.rm.contiguous(t.Member) < t.Seq {
			return
		}
	}
	mb.pendingDecide = nil
	oldSequencer := mb.s.view.Sequencer()

	newMembers := make([]NodeID, 0, len(m.Members)+len(m.Joiners))
	newMembers = append(newMembers, m.Members...)
	newMembers = append(newMembers, m.Joiners...)

	targets := make(map[NodeID]uint64, len(m.Targets))
	inNew := make(map[NodeID]bool, len(newMembers))
	joiner := make(map[NodeID]bool, len(m.Joiners))
	for _, p := range newMembers {
		inNew[p] = true
	}
	for _, p := range m.Joiners {
		joiner[p] = true
	}
	for _, t := range m.Targets {
		targets[t.Member] = t.Seq
		switch {
		case joiner[t.Member]:
			// A fresh incarnation readmitted in the same change that
			// excludes its dead predecessor: the old stream's tail
			// beyond the flush target dies with it.
			mb.s.to.purgeSender(t.Member, t.Seq)
		case !inNew[t.Member]:
			mb.s.to.purgeSender(t.Member, t.Seq)
			mb.s.rm.excludePeer(t.Member, t.Seq)
		}
	}

	mb.s.view = View{ID: m.NewViewID, Members: newMembers}
	mb.s.rank = mb.s.indexOf(mb.s.cfg.Self)
	mb.s.stats.ViewChanges++
	mb.state = membStable
	mb.restartDetector()
	// Admitted joiners start over: fresh incarnation, fresh stream, no
	// stability carried over from their previous life.
	for _, j := range m.Joiners {
		mb.s.rm.reset(j, 0)
		delete(mb.pendingJoiners, j)
	}

	if mb.s.rank < 0 {
		// Excluded from the view: halt.
		mb.s.halt()
		return
	}
	mb.s.stab.resetForView()
	if !inNew[oldSequencer] {
		// The dying sequencer's final announcement batches can have been
		// processed by a strict subset of the survivors while frozen. Roll
		// back everything beyond its flush-agreed target BEFORE unfreezing
		// (unfreeze can trigger deliveries) so every survivor renumbers
		// from the same base in onInstall.
		if t, agreed := targets[oldSequencer]; agreed {
			mb.s.to.rollbackUnagreed(oldSequencer, t)
		}
	}
	// Unfreeze before the ordering layer runs: deliveries paused for the
	// view change resume only once the reliable layer accepts traffic
	// again, and the deferred assignments made in onInstall must be able
	// to drain.
	mb.s.rm.unfreeze()
	mb.s.to.onInstall(oldSequencer, !inNew[oldSequencer], targets)
	if m.Proposer != mb.s.cfg.Self {
		ack := installedMsg{NewViewID: m.NewViewID}
		mb.s.transmitTo(m.Proposer, ack.marshal(mb.s.wire[:0]))
	} else {
		mb.installAcks[mb.s.cfg.Self] = true
	}
	if mb.s.IsSequencer() {
		// Tell each joiner its catch-up sequence: by install time every
		// old-view message has an assignment here (install waits for the
		// full flush), so maxAssigned bounds everything the joiner can
		// never receive through the streams.
		for _, j := range m.Joiners {
			mb.sendJoinSync(j)
		}
	}
	if mb.s.onView != nil {
		mb.s.onView(mb.s.view)
	}
}

// onInstalled (coordinator) tracks completion of the view change.
func (mb *membership) onInstalled(src NodeID, m *installedMsg) {
	if !mb.proposing || mb.decision == nil || m.NewViewID != mb.decision.NewViewID {
		return
	}
	mb.installAcks[src] = true
	for _, p := range mb.decision.Members {
		if !mb.installAcks[p] && p != mb.s.cfg.Self && !mb.s.rm.peer(p).suspected {
			return
		}
	}
	for _, p := range mb.decision.Joiners {
		if !mb.installAcks[p] && !mb.s.rm.peer(p).suspected {
			return
		}
	}
	mb.proposing = false
}

// startJoin begins the admission loop of a recovering node: periodically
// multicast a join request until a view admits us and the sequencer's
// joinSync announces the catch-up sequence.
func (mb *membership) startJoin() {
	mb.ensureJoinTick()
}

// ensureJoinTick (re)starts the periodic join request without ever running
// two tick chains at once.
func (mb *membership) ensureJoinTick() {
	if !mb.joinTicking {
		mb.joinTick()
	}
}

func (mb *membership) joinTick() {
	s := mb.s
	if s.stopped || (!s.joining && s.joinSynced) {
		mb.joinTicking = false
		return
	}
	mb.joinTicking = true
	req := joinReqMsg{Node: s.cfg.Self}
	if !s.joining {
		// Admitted but still waiting for the catch-up sequence: the
		// nonzero installed view tells the sequencer to resend it rather
		// than start another view change.
		req.Installed = s.view.ID
	}
	s.stats.JoinRequests++
	s.transmit(req.marshal(s.wire[:0]))
	s.rt.StartJob(s.cfg.RetransPeriod, func() { mb.joinTick() })
}

// onJoinReq handles an admission request at a live member.
func (mb *membership) onJoinReq(src NodeID, m *joinReqMsg) {
	s := mb.s
	node := m.Node
	if node != src || node == s.cfg.Self {
		return
	}
	if s.view.Contains(node) {
		if m.Installed != 0 {
			// An admitted member that lost its joinSync: resend. Only
			// the sequencer knows the order, so only it answers.
			if s.IsSequencer() {
				mb.sendJoinSync(node)
			}
			return
		}
		// A fresh incarnation of a node the view still lists: its dead
		// predecessor was never excluded (it restarted faster than the
		// failure detector). Suspect the ghost so one view change both
		// excludes it and admits the new incarnation.
		if ps := mb.s.rm.peer(node); !ps.suspected {
			ps.suspected = true
			ps.lastHeard = 0
		}
	}
	mb.pendingJoiners[node] = true
	mb.maybeInitiate()
}

// sendJoinSync announces a joiner's catch-up sequence: everything at or
// below it must come from a database snapshot; everything above arrives as
// normal deliveries. Any maxAssigned value taken at or after the join
// install is sound — later values only widen the snapshot's coverage — so
// retries simply use the current one.
func (mb *membership) sendJoinSync(dst NodeID) {
	sync := joinSyncMsg{ViewID: mb.s.view.ID, JoinSeq: mb.s.to.maxAssigned}
	mb.s.transmitTo(dst, sync.marshal(mb.s.wire[:0]))
}

// onJoinSync handles the catch-up announcement at the joiner. It can arrive
// before the decide that admits us (the sequencer may install first); buffer
// it until our own install in that case. After install only an announcement
// for the installed view counts: a retransmission from a view we have since
// been readmitted past would understate the catch-up sequence.
func (mb *membership) onJoinSync(m *joinSyncMsg) {
	s := mb.s
	if s.joinSynced {
		return
	}
	if s.joining {
		mb.pendingJoinSync = m
		return
	}
	if m.ViewID != s.view.ID {
		return
	}
	s.joinSynced = true
	s.joinSeq = m.JoinSeq
	s.to.skipTo(m.JoinSeq)
	if s.onJoined != nil {
		s.onJoined(m.JoinSeq)
	}
}

// installJoin installs the view that admits this joining node. There is no
// repair phase: the flush targets become the stream cursors — everything at
// or below them is covered by the database snapshot this node transfers —
// and normal periodic duty (stability, failure detection, heartbeats)
// starts now.
func (mb *membership) installJoin(m *decideMsg) {
	s := mb.s
	firstInstall := s.joining
	newMembers := make([]NodeID, 0, len(m.Members)+len(m.Joiners))
	newMembers = append(newMembers, m.Members...)
	newMembers = append(newMembers, m.Joiners...)
	s.view = View{ID: m.NewViewID, Members: newMembers}
	s.rank = s.indexOf(s.cfg.Self)
	s.stats.ViewChanges++
	s.stats.Joins++
	mb.state = membStable
	mb.restartDetector()
	// A second admission (a member mistook our still-joining requests for
	// a fresh restart and excluded-plus-readmitted us) invalidates the
	// earlier catch-up sequence: the cursor jumps below skip message
	// ranges only a newer joinSync can account for. Re-enter the unsynced
	// state and request a fresh announcement.
	s.joinSynced = false
	for _, t := range m.Targets {
		if t.Member == s.cfg.Self {
			continue
		}
		s.rm.reset(t.Member, t.Seq)
	}
	for _, j := range m.Joiners {
		if j == s.cfg.Self {
			// The group reset our stream cursor to zero; restart the
			// local numbering to match (no-op on a first admission).
			s.rm.resetSelf()
			continue
		}
		s.rm.reset(j, 0)
	}
	s.joining = false
	s.stab.resetForView()
	// A readmitted node may still be frozen from an earlier, abandoned
	// view change; its cursors were just reset, so resume normal flow.
	s.rm.unfreeze()
	if firstInstall {
		s.stab.startTimer()
		mb.scheduleFD()
		mb.scheduleHB()
	}
	ack := installedMsg{NewViewID: m.NewViewID}
	s.transmitTo(m.Proposer, ack.marshal(s.wire[:0]))
	if s.onView != nil {
		s.onView(s.view)
	}
	if sync := mb.pendingJoinSync; sync != nil {
		mb.pendingJoinSync = nil
		mb.onJoinSync(sync)
	}
	mb.ensureJoinTick()
}
