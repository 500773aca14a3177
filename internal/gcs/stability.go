package gcs

import "repro/internal/runtimeapi"

// stability implements the scalable stability detection protocol of
// Section 3.4: asynchronous rounds gossiping (i) a vector S of sequence
// numbers of known stable messages, (ii) a set W of processes that have
// voted in the current round, and (iii) a vector M of sequence numbers of
// messages already received by all voters. When W includes all operational
// processes, S is updated from M. Because each member contributes its
// contiguous received prefix, a round can only garbage collect contiguous
// sequences of messages received by all participants — the property behind
// the paper's observed blocking under independent random loss.
//
// The vectors are columns of the peer table: S is peerState.stable, M is
// peerState.roundMin.
type stability struct {
	s     *Stack
	round uint64
	w     uint32
	timer runtimeapi.Timer

	// vecScratch backs the three wire vectors of a gossip tick; they are
	// marshalled into the stack's scratch buffer.
	vecScratch []uint64
	// gossipScratch is the reusable decode target for incoming gossip;
	// onGossip consumes it synchronously.
	gossipScratch gossipMsg
}

func newStability(s *Stack) *stability {
	st := &stability{s: s}
	st.beginRound(1)
	return st
}

// startTimer begins periodic gossip.
func (st *stability) startTimer() { st.scheduleTick() }

func (st *stability) scheduleTick() {
	st.timer = st.s.rt.Schedule(st.s.cfg.stabilityPeriod, func() {
		st.tick()
		if !st.s.stopped {
			st.scheduleTick()
		}
	})
}

// beginRound resets round state with only the local vote. Departed members
// keep a stale M in their rows, harmlessly: every reader iterates the current
// view.
func (st *stability) beginRound(r uint64) {
	st.round = r
	st.w = 1 << uint(st.s.rank)
	for _, p := range st.s.view.Members {
		st.s.rm.peer(p).roundMin = st.s.rm.contiguous(p)
	}
}

// fullMask is the voter bitmask covering all current view members.
func (st *stability) fullMask() uint32 {
	return (1 << uint(len(st.s.view.Members))) - 1
}

// tick gossips the current round state to the group.
func (st *stability) tick() {
	if st.s.stopped {
		return
	}
	members := st.s.view.Members
	n := len(members)
	if cap(st.vecScratch) < 3*n {
		st.vecScratch = make([]uint64, 3*n)
	}
	vs := st.vecScratch[:3*n]
	g := gossipMsg{
		ViewID: st.s.view.ID,
		Round:  st.round,
		W:      st.w,
		M:      vs[:n],
		S:      vs[n : 2*n],
		H:      vs[2*n:],
	}
	for i, p := range members {
		ps := st.s.rm.peer(p)
		g.M[i] = ps.roundMin
		g.S[i] = ps.stable
		g.H[i] = st.s.rm.contiguous(p)
	}
	st.s.stats.Gossips++
	st.s.transmit(g.marshal(st.s.wire[:0]))
	st.s.memb.sentSomething()
}

// onGossip merges a peer's round state.
func (st *stability) onGossip(src NodeID, g *gossipMsg) {
	if g.ViewID != st.s.view.ID || len(g.M) != len(st.s.view.Members) {
		return
	}
	st.s.rt.Charge(costPerGossip)
	// Credit replenishment: g.H[my rank] is src's contiguous prefix of my
	// own stream — its acknowledgement cursor for the sender-side credit
	// gate. An advance may release chunks blocked on src's credit.
	creditAdvanced := false
	if src != st.s.cfg.Self && len(g.H) == len(st.s.view.Members) &&
		st.s.rank >= 0 && st.s.rank < len(g.H) {
		creditAdvanced = st.s.rm.creditAck(src, g.H[st.s.rank])
	}
	// Learn stream horizons: another member has received further into p's
	// stream than we have — a tail loss no data packet would reveal.
	if len(g.H) == len(st.s.view.Members) {
		for i, p := range st.s.view.Members {
			if p == st.s.cfg.Self {
				continue
			}
			if g.H[i] > st.s.rm.contiguous(p) {
				st.s.rm.learnHorizon(p, g.H[i])
			}
		}
	}
	switch {
	case g.Round > st.round:
		// Join the newer round: adopt its state plus my vote, taking
		// elementwise minima against my contiguous received prefixes.
		st.round = g.Round
		st.w = g.W | 1<<uint(st.s.rank)
		for i, p := range st.s.view.Members {
			v := g.M[i]
			if lc := st.s.rm.contiguous(p); lc < v {
				v = lc
			}
			st.s.rm.peer(p).roundMin = v
		}
	case g.Round == st.round:
		st.w |= g.W
		for i, p := range st.s.view.Members {
			if ps := st.s.rm.peer(p); g.M[i] < ps.roundMin {
				ps.roundMin = g.M[i]
			}
		}
	}
	if st.w == st.fullMask() {
		// Round complete: everything in M is stable. It joins the received
		// S (g is decoded scratch, consumed by this call) because beginRound
		// overwrites M before the merge below runs.
		for i, p := range st.s.view.Members {
			if m := st.s.rm.peer(p).roundMin; m > g.S[i] {
				g.S[i] = m
			}
		}
		st.beginRound(st.round + 1)
	}
	// Stability knowledge is monotone: always merge S, releasing the buffers
	// of every prefix it newly covers. The merge runs after the round logic
	// because freed sender share transmits at once (gcStable drains), and
	// the round's vectors are read before that traffic moves the cursors.
	for i, p := range st.s.view.Members {
		st.s.rm.gcStable(p, g.S[i])
	}
	if creditAdvanced {
		// The horizon is also the uniform-delivery ack fallback: a lost
		// assign-ack delays the sequencer's delivery by at most one gossip
		// period.
		st.s.to.advanceAnnounceSafe()
		st.s.rm.drain()
	}
}

// resetForView restarts rounds over the new membership. Stable knowledge for
// surviving members carries over.
func (st *stability) resetForView() {
	st.beginRound(1)
}
