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
