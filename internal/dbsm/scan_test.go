package dbsm

// scanCertifier is the reference the differential tests hold Certifier to:
// the certification procedure as the paper formulates it, a scan of every
// retained write-set that committed after the transaction's snapshot
// (O(concurrent history × read-set) per transaction), over the same history
// and with the same MaxHistory pruning rule.
type scanCertifier struct {
	// Charge, if set, is invoked with the identifier comparisons a
	// certification made.
	Charge func(items int)
	// MaxHistory bounds retained committed write-sets (0 = unlimited).
	MaxHistory int

	hist   history
	seq    uint64
	pruned uint64 // highest seq dropped by pruning
}

// Seq reports the count of committed transactions so far.
func (c *scanCertifier) Seq() uint64 { return c.seq }

// conflicts reports whether a write-set committed after t's snapshot
// intersects t's read-set, charging the comparisons it made.
func (c *scanCertifier) conflicts(t *TxnCert) bool {
	comparisons, hit := 0, false
	for i := c.hist.firstAfter(t.LastCommitted); i < c.hist.n && !hit; i++ {
		e := c.hist.at(i)
		comparisons += len(e.writeSet) + len(t.ReadSet)
		hit = e.writeSet.Intersects(t.ReadSet)
	}
	if c.Charge != nil {
		c.Charge(comparisons)
	}
	return hit
}

// refused is the pruning rule: a reader whose snapshot predates the retained
// window aborts.
func (c *scanCertifier) refused(t *TxnCert) bool {
	return t.LastCommitted < c.pruned && len(t.ReadSet) > 0
}

// Certify commits t unless the pruning rule refuses it or a concurrent
// committed write-set conflicts with its read-set.
func (c *scanCertifier) Certify(t *TxnCert) Outcome {
	if c.refused(t) || c.conflicts(t) {
		return Outcome{Commit: false}
	}
	return c.ForceCommit(t)
}

// CheckOnly is Certify's test without the commit.
func (c *scanCertifier) CheckOnly(t *TxnCert) bool {
	return !c.refused(t) && !c.conflicts(t)
}

// ForceCommit installs t unconditionally.
func (c *scanCertifier) ForceCommit(t *TxnCert) Outcome {
	c.seq++
	if len(t.WriteSet) > 0 {
		c.hist.push(c.seq, t.WriteSet)
		if drop := c.hist.n - c.MaxHistory; c.MaxHistory > 0 && drop > 0 {
			c.pruned = max(c.pruned, c.hist.at(drop-1).seq)
			c.hist.dropFront(drop)
		}
	}
	return Outcome{Commit: true, Seq: c.seq}
}

// ImportState replaces the reference's state with a snapshot.
func (c *scanCertifier) ImportState(st *CertState) {
	c.hist.reset()
	c.seq, c.pruned = st.Seq, st.Pruned
	for i := range st.History {
		c.hist.push(st.History[i].Seq, st.History[i].WriteSet)
	}
}
