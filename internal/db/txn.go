package db

import (
	"repro/internal/dbsm"
	"repro/internal/sim"
)

// Outcome is a transaction's fate.
type Outcome int

// Transaction outcomes. AbortLock is a local write-write conflict (a lock
// holder committed while this transaction waited, or a certified transaction
// preempted it); AbortCert is a certification failure; AbortUser is an
// application rollback (TPC-C's 1% intentional new-order aborts); AbortCrash
// means the site died.
const (
	Committed Outcome = iota + 1
	AbortLock
	AbortCert
	AbortUser
	AbortCrash
	// Rejected is an explicit admission-control refusal: the server (or the
	// replication stack beneath it) was overloaded and declined the
	// transaction without executing it to completion. Unlike the aborts it
	// carries a retry invitation — the client may resubmit the same
	// transaction (same TID) after a backoff.
	Rejected
)

func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case AbortLock:
		return "abort-lock"
	case AbortCert:
		return "abort-cert"
	case AbortUser:
		return "abort-user"
	case AbortCrash:
		return "abort-crash"
	case Rejected:
		return "rejected"
	default:
		return "unknown"
	}
}

// Txn is one transaction instance flowing through a server.
//
// A server holds t from Submit until Done has fired and every continuation
// it handed out for t has run: a storage read that missed the cache, a CPU
// slice, the commit CPU job, the write-back, and the pendingCert entry, which
// outlives the replica's queued termination stage. Held reports it. While t
// is held only the server changes it; once it is not, the submitter may
// Recycle it and build its next transaction into the same memory. A hold that
// is never given back — a pendingCert entry Restart forgets, a job a crashed
// CPU drops — keeps t held for good, which costs its submitter one fresh
// allocation and never correctness: no continuation of an old attempt can
// ever run against a new one.
type Txn struct {
	// TID is the global transaction identifier.
	TID uint64
	// Class labels the workload class (e.g. "payment-long") for the abort
	// rate breakdowns of Tables 1 and 2.
	Class string
	// ReadOnly transactions skip the distributed termination protocol;
	// their latency is unaffected by replication (Section 5.1).
	ReadOnly bool
	// Fetches, CPU and Quantum are the execution script (Section 3.1: fetch
	// a data item, do some processing, write back at commit). The server
	// first performs Fetches storage reads, one after the other — which
	// items they name does not matter to the storage model, only how many —
	// and then spends CPU of processing time in slices of at most Quantum
	// (the round-robin quantum; the last slice is the remainder, and a
	// Quantum of 0 leaves CPU as one slice). Write-back happens at commit
	// and is sized by WriteSet.
	Fetches int
	CPU     sim.Time
	Quantum sim.Time
	// ReadSet and WriteSet are known before execution starts, enabling
	// atomic lock acquisition without deadlock detection (Section 3.1).
	ReadSet  dbsm.ItemSet
	WriteSet dbsm.ItemSet
	// WriteBytes is the total size of written values.
	WriteBytes int
	// CommitCPU is the processing cost of the commit operation itself
	// (profiled at just under 2ms for all classes).
	CommitCPU sim.Time
	// UserAbort marks a transaction the application rolls back at the end
	// of execution (TPC-C's 1% new-order aborts).
	UserAbort bool

	// Done receives the final outcome exactly once.
	Done func(*Txn, Outcome)
	// Build, if set, fills in the fields above other than TID and Class the
	// first time a server admits the transaction; the server clears it as it
	// calls it. A refused attempt reads only TID, Class and Done, so a
	// submitter whose arrivals are mostly refused can leave the script and
	// the sets unbuilt until one is let in.
	Build func(*Txn)

	// Measurement timestamps, filled by the server.
	SubmitAt    sim.Time
	LocksAt     sim.Time // when locks were granted
	CommitReqAt sim.Time // when the commit request entered termination
	EndAt       sim.Time

	// Snapshot is the certification sequence applied locally when the
	// transaction started: the concurrency horizon for certification.
	Snapshot uint64

	// internal state
	fetched   int      // script position: storage reads issued
	cpuSpent  sim.Time // script position: processing time handed to the CPU
	aborted   bool
	certified bool
	decided   bool // first certification verdict already sampled
	finished  bool
	holding   bool        // currently holds its write locks
	holds     int         // the submission until Done fires, plus each continuation in flight
	server    *Server     // the server stats belongs to
	stats     *ClassStats // Class's bucket at server, found once per server

	// The pipeline's continuations, bound once per (transaction, server) by
	// Server.bind and kept across retries and Recycle.
	bound     *Server
	stepFn    func() // after a fetch or a CPU slice
	granted   func() // all write locks held
	committed func() // the commit CPU job ran
	written   func() // the commit write-back landed
}

// Held reports whether a server still holds t (see the type comment).
func (t *Txn) Held() bool { return t.holds > 0 }

// Recycle clears t for the next transaction its submitter builds into it. It
// keeps the continuations a server bound and the backing arrays of the two
// sets (race builds fill them with all-ones first), and clears everything
// else, the cached class bucket included. t must not be held.
func (t *Txn) Recycle() {
	if t.holds != 0 {
		panic("db: Recycle of a transaction a server still holds")
	}
	if sim.RaceBuild { // a reader that kept a set past the hold sees garbage
		sim.Poison(t.ReadSet)
		sim.Poison(t.WriteSet)
	}
	*t = Txn{
		ReadSet:   t.ReadSet[:0],
		WriteSet:  t.WriteSet[:0],
		bound:     t.bound,
		stepFn:    t.stepFn,
		granted:   t.granted,
		committed: t.committed,
		written:   t.written,
	}
}

// CertInfo builds the certification message for this transaction into a new
// record.
func (t *Txn) CertInfo(site dbsm.SiteID, readSetThreshold int) *dbsm.TxnCert {
	c := new(dbsm.TxnCert)
	t.CertInfoInto(c, site, readSetThreshold)
	return c
}

// CertInfoInto builds the certification message for this transaction into c,
// overwriting every field. c's sets alias t's unless the read-set is upgraded
// to table locks: a reader copies what it keeps, since t's arrays are reused
// once the server lets go of t.
func (t *Txn) CertInfoInto(c *dbsm.TxnCert, site dbsm.SiteID, readSetThreshold int) {
	rs := t.ReadSet
	if readSetThreshold > 0 {
		rs = rs.UpgradeToTableLocks(readSetThreshold)
	}
	*c = dbsm.TxnCert{
		TID:           t.TID,
		Site:          site,
		LastCommitted: t.Snapshot,
		ReadSet:       rs,
		WriteSet:      t.WriteSet,
		WriteBytes:    t.WriteBytes,
	}
}

// Latency reports submit-to-outcome latency (valid after completion).
func (t *Txn) Latency() sim.Time { return t.EndAt - t.SubmitAt }

// ResetForRetry clears the per-attempt execution state so the same
// transaction instance — same TID, same operation script, same sets — can be
// resubmitted after a rejection. Identity surviving the retry is what makes
// resubmission idempotent: a duplicate of an already-active TID is refused at
// admission, and the off-line checker verifies no TID ever commits twice.
// The class bucket the last server resolved and the continuations it bound
// stay: they belong to the transaction and that server, not to the attempt.
func (t *Txn) ResetForRetry() {
	t.fetched, t.cpuSpent = 0, 0
	t.aborted = false
	t.certified = false
	t.decided = false
	t.finished = false
	t.holding = false
	t.SubmitAt = 0
	t.LocksAt = 0
	t.CommitReqAt = 0
	t.EndAt = 0
	t.Snapshot = 0
}
