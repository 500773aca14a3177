package gcs

// Joined reports whether a joining stack has been admitted and synced (a
// stack that never joined reports true).
func (s *Stack) Joined() bool { return !s.joining && s.joinSynced }

// JoinSeq reports the catch-up sequence learned at join time.
func (s *Stack) JoinSeq() uint64 { return s.joinSeq }

// BufferedMessages reports chunks held in receive and send buffers plus
// queued unsent chunks (leak diagnostics: must drop to zero at halt).
func (s *Stack) BufferedMessages() int {
	n := s.rm.sendBuf.len() + len(s.rm.outQ) - s.rm.outHead
	for _, ps := range s.rm.peers {
		n += ps.recvBuf.len()
	}
	for _, m := range s.to.msgs {
		if m.held {
			n++
		}
	}
	return n
}

// BufferedBytes reports the payload bytes those buffers pin.
func (s *Stack) BufferedBytes() int {
	n := s.rm.sendBufBytes
	for _, c := range s.rm.outQ[s.rm.outHead:] {
		n += len(c.wire)
	}
	for _, ps := range s.rm.peers {
		for _, m := range ps.recvBuf.all() {
			n += len(m.Data)
		}
	}
	for _, m := range s.to.msgs {
		n += len(m.data)
	}
	return n
}

// len reports the live keys.
func (r *seqRing[V]) len() int { return r.n }

// ShelvedBuffers reports how many stores released stacks left on the shelf
// and the buffers those hold, and leaves them there in their order.
func ShelvedBuffers() (stores, buffers int) {
	var all []bufStore
	for {
		st, ok := bufStores.Get()
		if !ok {
			break
		}
		all = append(all, st)
	}
	for i := len(all) - 1; i >= 0; i-- {
		st := all[i]
		buffers += len(st.msgs) + len(st.chunks) + len(st.bodies)
		bufStores.Put(st)
	}
	return len(all), buffers
}

// DropShelvedBuffers empties the shelf, so the stacks later tests build start
// with empty free lists.
func DropShelvedBuffers() {
	for {
		if _, ok := bufStores.Get(); !ok {
			return
		}
	}
}
