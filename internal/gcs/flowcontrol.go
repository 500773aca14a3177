package gcs

// Credit-based flow control, the sender side of the bounded-queue scheme:
// each destination's row holds an acknowledgement cursor (peerState.acked) —
// the highest sequence number of my stream it is known, via assign-acks and
// stability gossip horizons, to have received contiguously — and a chunk may
// only be transmitted while every live destination's cursor is within
// creditLimit of it. A slow or gray-failed receiver therefore throttles the
// sender once it lags a full credit window, instead of letting unstable
// traffic pile up in its receive buffers without bound. Healthy receivers ack
// far faster than a window's worth of traffic accumulates, so the gate binds
// only under genuine receiver distress.

// creditOK reports whether every live destination has credit for seq. Self
// and excluded peers never gate: self-delivery is immediate and an excluded
// member will never ack again.
func (rm *relMcast) creditOK(seq uint64) bool {
	for _, p := range rm.s.view.Members {
		if p == rm.s.cfg.Self {
			continue
		}
		if ps := rm.peer(p); !ps.excluded && seq > ps.acked+rm.creditLimit {
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

// creditAck merges an acknowledgement from src — an assign-ack or a gossip
// horizon — into its cursor and reports whether it advanced (an advance may
// unblock the drain loop). Merges never move the cursor backwards, however
// acknowledgements are reordered in flight.
func (rm *relMcast) creditAck(src NodeID, seq uint64) bool {
	ps := rm.peer(src)
	if seq <= ps.acked {
		return false
	}
	ps.acked = seq
	return true
}
