// Package trace records per-transaction logs and per-site commit logs. The
// off-line safety check over commit logs (Section 5.3) lives in
// internal/check, which consumes the CommitLog sequences recorded here.
//
// The sites of a replication group commit the same sequence, so their logs
// are stored once: each site's CommitLog is a prefix of the group's
// LogArray for as long as its entries agree with it, and the first entry
// that does not moves that log into storage of its own for the rest of the
// run. A divergence is thus kept exactly as the site committed it.
package trace

import (
	"slices"

	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

// Record is one transaction's log entry: submission and termination times,
// outcome, and identifier (Section 3.2).
type Record struct {
	TID     uint64
	Class   string
	Site    dbsm.SiteID
	Client  int
	Submit  sim.Time
	End     sim.Time
	Outcome db.Outcome
}

// Latency reports the transaction's response time.
func (r Record) Latency() sim.Time { return r.End - r.Submit }

// TxnLog accumulates transaction records for one run.
type TxnLog struct {
	records []Record
}

// Add appends a record.
func (l *TxnLog) Add(r Record) { l.records = append(l.records, r) }

// Records returns the accumulated records.
func (l *TxnLog) Records() []Record { return l.records }

// Len reports the record count.
func (l *TxnLog) Len() int { return len(l.records) }

// XRecord is one site's record of a cross-group (multi-group) transaction's
// resolution under partial replication: the group that recorded it, the
// decision, the install position in that group's certified order, and the
// group-local read/write sets. The off-line cross-group serialization check
// (internal/check) consumes one canonical record stream per group.
type XRecord struct {
	TID       uint64
	Group     int
	HomeGroup int
	Commit    bool
	// Seq is the group-local commit sequence assigned at install (0 when
	// aborted, or when the group's part wrote nothing).
	Seq uint64
	// Involved is the bitmask of involved groups (bit 1<<g for group g).
	// Only home-group records carry it; remote groups see a restricted
	// prepare.
	Involved uint32
	ReadSet  dbsm.ItemSet
	WriteSet dbsm.ItemSet
}

// CommitEntry is one committed transaction in a site's certified order.
type CommitEntry struct {
	Seq uint64
	TID uint64
}

// LogArray is the one array a replication group's commit logs share: its
// entries are the longest sequence some sharing log committed. An entry once
// written is never rewritten, and the array grows by doubling.
type LogArray struct {
	entries []CommitEntry
}

// CommitLog is the sequence of transactions a site committed, in
// certification order. Comparing these logs off-line is the paper's safety
// condition.
//
// A log given a LogArray by Share is the capped prefix shared[:n:n] of it
// while its entries agree with the array's; a log that diverges, or takes a
// snapshot by Reset, keeps private storage from then on. Either way, a slice
// Entries returned never changes: the array's prefix is never rewritten, and
// a private append lands past every length already returned.
type CommitLog struct {
	entries []CommitEntry
	shared  *LogArray // nil once the log is private
}

// Share makes an empty log a prefix of a: its appends extend a while they
// agree with what a already holds.
func (l *CommitLog) Share(a *LogArray) {
	if len(l.entries) != 0 {
		panic("trace: Share on a non-empty commit log")
	}
	l.shared = a
}

// Append records a commit decision. A sharing log extends its prefix when the
// array already holds the same entry at the log's next position, or appends
// to the array when the log is the array's end; any other entry diverges,
// and the log copies its prefix into private storage before appending.
func (l *CommitLog) Append(seq, tid uint64) {
	e := CommitEntry{Seq: seq, TID: tid}
	if a := l.shared; a != nil {
		n := len(l.entries)
		if n == len(a.entries) {
			if n == cap(a.entries) {
				a.entries = slices.Grow(a.entries, n)
			}
			a.entries = append(a.entries, e)
		}
		if a.entries[n] == e {
			l.entries = a.entries[: n+1 : n+1]
			return
		}
		l.shared = nil
	}
	// A private log's first append copies: a shared prefix, or a slice
	// Reset aliased, has its capacity trimmed to its length.
	l.entries = append(l.entries, e)
}

// Reset replaces the log with a snapshot-transferred sequence — a recovered
// site restarts its log from the donor's, so the post-rejoin stream extends
// a prefix shared with every survivor. The log aliases entries, which must
// not change (an Entries slice does not), and is private from then on.
func (l *CommitLog) Reset(entries []CommitEntry) {
	l.entries = entries[:len(entries):len(entries)]
	l.shared = nil
}

// Entries returns the committed sequence. The slice never changes, whatever
// the log appends later, and an append to it copies.
func (l *CommitLog) Entries() []CommitEntry {
	return l.entries[:len(l.entries):len(l.entries)]
}

// Len reports the number of commits.
func (l *CommitLog) Len() int { return len(l.entries) }
