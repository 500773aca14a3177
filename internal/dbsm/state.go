package dbsm

// CertState is a portable snapshot of a certifier's decision-relevant state:
// the commit sequence, the pruning boundary, and the retained committed
// write-sets. It is what a recovering site state-transfers from a donor
// (internal/recovery) instead of replaying the certified stream from zero:
// importing the state and then feeding the post-snapshot stream yields
// verdicts identical to having processed the whole stream.
//
// The inverted last-writer index is deliberately not serialized: every cell
// that can still decide a verdict — a write after the pruning boundary — is
// derived from the retained history, so ImportState rebuilds the index by
// replaying the entries, generations included; a snapshot older than what
// the rebuilt index covers is answered from the history. No undo records come
// with them: a snapshot holds finalized commits only, which nothing will ever
// roll back.
type CertState struct {
	// Seq is the commit sequence number at export.
	Seq uint64
	// Pruned is the pruning boundary: transactions whose snapshot predates
	// it abort deterministically.
	Pruned uint64
	// History holds the retained committed write-sets, oldest first.
	History []CommitRecord
}

// CommitRecord is one retained committed write-set.
type CommitRecord struct {
	Seq      uint64
	WriteSet ItemSet
}

// WireSize reports the modeled transfer size of the state in bytes: two
// sequence fields plus, per record, its sequence and 8 bytes per item.
func (st *CertState) WireSize() int64 {
	n := int64(16)
	for i := range st.History {
		n += 8 + 8*int64(len(st.History[i].WriteSet))
	}
	return n
}

// ExportState snapshots the certifier. Write-sets are deep-copied, so the
// exporting certifier can keep running (and pruning) while the snapshot is in
// transit.
func (c *Certifier) ExportState() *CertState {
	st := &CertState{
		Seq:     c.seq,
		Pruned:  c.pruned,
		History: make([]CommitRecord, c.hist.n),
	}
	for i := range st.History {
		e := c.hist.at(i)
		st.History[i] = CommitRecord{Seq: e.seq, WriteSet: e.writeSet.Clone()}
	}
	return st
}

// ImportState replaces the certifier's state with a snapshot, rebuilding the
// last-writer index by replaying the retained history. Any prior state is
// discarded; the write-sets are copied, so the snapshot stays the caller's.
func (c *Certifier) ImportState(st *CertState) {
	c.hist = history{}
	c.undo = c.undo[:0]
	clear(c.lastWriter)
	clear(c.older)
	clear(c.tableLock)
	clear(c.tableAny)
	c.genStart, c.horizon = 0, 0
	c.pruned = st.Pruned
	for i := range st.History {
		rec := &st.History[i]
		e := histEntry{seq: rec.Seq, writeSet: rec.WriteSet.Clone()}
		c.seq = rec.Seq
		if !c.scan {
			c.indexWrites(e.writeSet, false)
		}
		c.hist.push(e)
	}
	c.seq = st.Seq
}
