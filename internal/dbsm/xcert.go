package dbsm

// Cross-group certification primitives. A multi-group transaction is decided
// by a vote/decide round carried on each involved group's total-order stream
// (internal/replica's cross-commit manager); the certifier contributes two
// deterministic building blocks: a read-only conflict test for the vote and
// an unconditional install for the decide. Both are pure functions of the
// certified stream position at which they run, so every member of a group
// reaches the same vote and the same installed state.

// CheckOnly runs the certification conflict test — would t commit against
// the current state? — without committing it. It is the home-group vote of
// the cross-group commit round: the snapshot-staleness test must pass, but
// the commit itself waits for the decide. The Veto predicate is NOT
// consulted; the caller combines this test with its own reservation check.
func (c *Certifier) CheckOnly(t *TxnCert) bool {
	if t.LastCommitted < c.pruned && len(t.ReadSet) > 0 {
		return false
	}
	if c.scan {
		return c.checkOnlyScan(t)
	}
	pos := c.firstConflict(t)
	if c.Charge != nil {
		if pos > 0 {
			c.Charge(pos)
		} else {
			c.Charge(len(t.ReadSet))
		}
	}
	return pos == 0
}

// checkOnlyScan is the reference-procedure variant of CheckOnly.
func (c *Certifier) checkOnlyScan(t *TxnCert) bool {
	comparisons := 0
	ok := true
	for i := c.hist.firstAfter(t.LastCommitted); i < c.hist.n; i++ {
		e := c.hist.at(i)
		comparisons += len(e.writeSet) + len(t.ReadSet)
		if e.writeSet.Intersects(t.ReadSet) {
			ok = false
			break
		}
	}
	if c.Charge != nil {
		c.Charge(comparisons)
	}
	return ok
}

// ForceCommit installs t unconditionally: the decide of the cross-group
// commit round, whose verdict was fixed by the vote phase — re-testing here
// would be wrong, since unrelated local commits may have advanced the state
// past t's snapshot while the reservation protected its conflict set. The
// write-set enters the history and index exactly as a certified commit
// would, so subsequent certifications see it.
func (c *Certifier) ForceCommit(t *TxnCert) Outcome {
	if c.Charge != nil {
		c.Charge(len(t.WriteSet))
	}
	c.commit(t)
	return Outcome{Commit: true, Seq: c.seq}
}

// InvalidateAll rolls back every outstanding tentative decision and returns
// the rolled-back transactions in tentative order for re-speculation. The
// cross-commit manager calls it before mutating shared certifier state at a
// final-order event (reservation install, forced commit): tentative outcomes
// computed against the pre-event state would otherwise be served by Final's
// head-match fast path after the state changed under them.
func (s *SpecCertifier) InvalidateAll() []*TxnCert {
	return s.rollback(0)
}
