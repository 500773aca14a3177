package gcs

// creditGate is the sender-side credit state of the bounded-queue flow
// control: each destination holds an acknowledgement cursor — the highest
// sequence number of my stream it is known (via stability gossip horizons)
// to have received contiguously — and a chunk may only be transmitted while
// every live destination's cursor is within creditsPerDest of it. A slow or
// gray-failed receiver therefore throttles the sender once it lags a full
// credit window, instead of letting unstable traffic pile up in its receive
// buffers without bound. Healthy receivers ack far faster than a window's
// worth of traffic accumulates, so the gate binds only under genuine
// receiver distress.
type creditGate struct {
	// limit is the per-destination credit window in chunks.
	limit uint64
	// acked maps destination to the contiguous prefix of my stream it has
	// acknowledged. Monotone: merges never move backwards.
	acked map[NodeID]uint64
}

func newCreditGate(limit uint64) *creditGate {
	return &creditGate{limit: limit, acked: make(map[NodeID]uint64)}
}

// ack merges a destination's acknowledgement cursor and reports whether it
// advanced (an advance may unblock the drain loop).
//
//hot:path
func (cg *creditGate) ack(dst NodeID, seq uint64) bool {
	if seq <= cg.acked[dst] {
		return false
	}
	cg.acked[dst] = seq
	return true
}

// allows reports whether seq is within dst's credit window.
//
//hot:path
func (cg *creditGate) allows(dst NodeID, seq uint64) bool {
	return seq <= cg.acked[dst]+cg.limit
}

// ackedSeq reports dst's acknowledgement cursor (tests and introspection).
func (cg *creditGate) ackedSeq(dst NodeID) uint64 { return cg.acked[dst] }

// forget drops a departed destination's cursor so a fresh incarnation of the
// same node starts from zero credit state.
func (cg *creditGate) forget(dst NodeID) { delete(cg.acked, dst) }

// reset clears every cursor (own-stream restart: the new stream's sequence
// numbers restart at 1, so old acks would be wildly over-generous).
func (cg *creditGate) reset() {
	for dst := range cg.acked {
		delete(cg.acked, dst)
	}
}

// creditOK reports whether every live destination has credit for seq. Self
// and excluded peers never gate: self-delivery is immediate and an excluded
// member will never ack again.
//
//hot:path
func (rm *relMcast) creditOK(seq uint64) bool {
	for _, p := range rm.s.view.Members {
		if p == rm.s.cfg.Self {
			continue
		}
		if ps := rm.peers[p]; ps != nil && ps.excluded {
			continue
		}
		if !rm.credits.allows(p, seq) {
			return false
		}
	}
	return true
}

// noteCreditStall counts the start of a credit-blocked episode (once per
// episode, like the Blocked counter).
func (rm *relMcast) noteCreditStall() {
	if !rm.creditBlocked {
		rm.creditBlocked = true
		rm.s.stats.CreditStalls++
	}
}

// creditAck feeds an acknowledgement learned from src's gossip into the gate
// and reports whether it advanced.
func (rm *relMcast) creditAck(src NodeID, seq uint64) bool {
	return rm.credits.ack(src, seq)
}
