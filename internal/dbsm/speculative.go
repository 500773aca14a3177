package dbsm

// SpecCertifier layers tentative certification with undo on a Certifier,
// supporting the optimistic-delivery protocol variant: transactions are
// certified in the spontaneous (tentative) delivery order as soon as they
// arrive, one ordering round before the sequencer's final total order. When
// the final order confirms the tentative order, the tentative outcome is
// authoritative and the final delivery costs nothing; when the orders
// diverge, every outstanding tentative decision is rolled back and
// certification restarts from the last finalized state.
//
// Correctness invariant: tent[i] was certified against the state reached by
// the finalized stream plus tent[0..i-1] in queue order. Matching pops
// preserve it (tent[0]'s certification state was exactly the finalized
// state), and any divergence rolls back the whole queue, so a popped outcome
// is always identical to what conservative certification of the final stream
// would have produced.
//
// Pruning is deferred to finalization so it stays a pure function of the
// finalized stream: a Certifier owned by a SpecCertifier never prunes inside
// Certify (its MaxHistory is cleared at construction); instead prune runs
// after each finalized transaction and drops oldest entries based only on
// the finalized history length. Tentative certification therefore never
// moves the pruning boundary, and every replica — whatever its local
// tentative queue looked like — prunes at the same finalized positions.
type SpecCertifier struct {
	c          *Certifier
	maxHistory int
	// tent[head:] is the tentative queue, oldest first. Final pops by
	// advancing head — reslicing would leave every later append without
	// spare capacity — and the slice is reset when the queue drains.
	tent []specEntry
	head int

	// Stats, exported for the replica's pipeline counters.
	Tentatives int64 // tentative certifications (including re-certifications)
	Matches    int64 // final deliveries confirming the tentative order
	Rollbacks  int64 // tentative/final order divergences unwound
}

type specEntry struct {
	t         *TxnCert
	out       Outcome
	histLen   int    // certifier history length before this tentative certify
	seqBefore uint64 // certifier seq before this tentative certify
	undoLen   int    // certifier undo stack height before this tentative certify
}

// NewSpecCertifier wraps a certifier for speculative use. The certifier's
// in-Certify pruning is disabled (see the type comment); the wrapper prunes
// deterministically at finalization instead.
func NewSpecCertifier(c *Certifier) *SpecCertifier {
	s := &SpecCertifier{c: c, maxHistory: c.MaxHistory}
	c.MaxHistory = 0
	return s
}

// Certifier exposes the wrapped deterministic certifier.
func (s *SpecCertifier) Certifier() *Certifier { return s.c }

// Finalized reports the certifier's finalized prefix: the history length and
// commit sequence excluding outstanding tentative certifications. A snapshot
// exported from a speculating donor must be truncated to this prefix —
// tentative commits can still be rolled back, and shipping them would leave
// the importer with phantom commits no other replica has.
func (s *SpecCertifier) Finalized() (histLen int, seq uint64) {
	if s.Pending() == 0 {
		return s.c.hist.n, s.c.seq
	}
	return s.tent[s.head].histLen, s.tent[s.head].seqBefore
}

// Pending reports outstanding tentative decisions awaiting final order.
func (s *SpecCertifier) Pending() int { return len(s.tent) - s.head }

// Tentative certifies t in tentative order and queues the decision. The
// outcome is speculative: it becomes authoritative only when Final confirms
// the order. t is held until then (or until a rollback returns it).
func (s *SpecCertifier) Tentative(t *TxnCert) Outcome {
	e := specEntry{t: t, histLen: s.c.hist.n, seqBefore: s.c.seq, undoLen: len(s.c.undo)}
	s.c.logUndo = true // a tentative commit is the only kind rolled back
	e.out = s.c.Certify(t)
	s.c.logUndo = false
	s.tent = append(s.tent, e)
	s.Tentatives++
	return e.out
}

// Final resolves the final-order delivery of t. When t matches the head of
// the tentative queue, its queued outcome is returned with no further
// certification work and rolled is nil. Otherwise every outstanding
// tentative decision is undone, t is certified against the restored
// finalized state, and the rolled-back transactions (t excluded) are
// returned in tentative order for the caller to re-speculate.
func (s *SpecCertifier) Final(t *TxnCert) (out Outcome, rolled []*TxnCert) {
	if s.Pending() > 0 && s.tent[s.head].t.TID == t.TID && !s.pruneInvalidated(&s.tent[s.head]) {
		out = s.tent[s.head].out
		s.tent[s.head].t = nil
		s.head++
		s.Matches++
		s.popUndo()
		s.prune()
		return out, nil
	}
	rolled = s.rollback(t.TID)
	out = s.c.Certify(t)
	s.prune()
	return out, rolled
}

// popUndo gives up the restore records of the entry Final just confirmed.
// With nothing tentative left, the queue and the whole stack are reset — the
// common case, one ordering round after each tentative delivery. Otherwise
// the records below the new head's mark are dead, and they are shifted out
// once they make up half the stack, which keeps the cost per record constant
// and the stack bounded by twice the live suffix when the queue never drains.
func (s *SpecCertifier) popUndo() {
	if s.Pending() == 0 {
		s.tent, s.head, s.c.undo = s.tent[:0], 0, s.c.undo[:0]
		return
	}
	dead := s.tent[s.head].undoLen
	if dead < len(s.c.undo)-dead {
		return
	}
	s.c.undo = s.c.undo[:copy(s.c.undo, s.c.undo[dead:])]
	for i := s.head; i < len(s.tent); i++ {
		s.tent[i].undoLen -= dead
	}
}

// pruneInvalidated reports whether pruning performed since e's tentative
// certification retroactively invalidates its commit verdict: conservative
// certification of the final stream would abort e under the pruned-window
// rule, while the tentative pass — which still saw the dropped entries —
// found no conflict. Such an entry must take the rollback path.
func (s *SpecCertifier) pruneInvalidated(e *specEntry) bool {
	return e.out.Commit && len(e.t.ReadSet) > 0 && e.t.LastCommitted < s.c.pruned
}

// Invalidate removes a tentative decision whose message will never reach
// final delivery — the group discarded it during a view change. A stuck
// entry would otherwise mismatch every subsequent Final forever, so the
// whole queue is rolled back once; the survivors are returned in tentative
// order for re-speculation. Returns nil when tid was never speculated on.
func (s *SpecCertifier) Invalidate(tid uint64) []*TxnCert {
	for _, e := range s.tent[s.head:] {
		if e.t.TID == tid {
			return s.rollback(tid)
		}
	}
	return nil
}

// rollback undoes every tentative decision, restoring the certifier to the
// finalized state, and returns the rolled-back transactions in tentative
// order minus the one being finalized (skip).
func (s *SpecCertifier) rollback(skip uint64) []*TxnCert {
	if s.Pending() == 0 {
		return nil
	}
	e0 := s.tent[s.head]
	s.c.truncate(e0.histLen, e0.seqBefore, e0.undoLen)
	rolled := make([]*TxnCert, 0, s.Pending())
	for i := s.head; i < len(s.tent); i++ {
		if t := s.tent[i].t; t.TID != skip {
			rolled = append(rolled, t)
		}
		s.tent[i].t = nil
	}
	s.tent, s.head, s.c.undo = s.tent[:0], 0, s.c.undo[:0]
	s.Rollbacks++
	return rolled
}

// prune drops the oldest finalized history entries beyond the retention
// bound. Only the finalized region — below the oldest outstanding tentative
// entry — is eligible, so the boundary is a pure function of the finalized
// stream and identical at every replica.
func (s *SpecCertifier) prune() {
	if s.maxHistory <= 0 {
		return
	}
	finalized, _ := s.Finalized()
	drop := finalized - s.maxHistory
	if drop <= 0 {
		return
	}
	s.c.dropOldest(drop)
	for i := s.head; i < len(s.tent); i++ {
		s.tent[i].histLen -= drop
	}
}
