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
	server    *Server     // the server stats belongs to
	stats     *ClassStats // Class's bucket at server, found once per server
	stepFn    func()      // single pipeline continuation, bound once at Submit
}

// CertInfo builds the certification message for this transaction.
func (t *Txn) CertInfo(site dbsm.SiteID, readSetThreshold int) *dbsm.TxnCert {
	rs := t.ReadSet
	if readSetThreshold > 0 {
		rs = rs.UpgradeToTableLocks(readSetThreshold)
	}
	return &dbsm.TxnCert{
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
// The class bucket the last server resolved stays: it belongs to the
// transaction and that server, not to the attempt.
func (t *Txn) ResetForRetry() {
	t.fetched, t.cpuSpent = 0, 0
	t.aborted = false
	t.certified = false
	t.decided = false
	t.finished = false
	t.holding = false
	t.stepFn = nil
	t.SubmitAt = 0
	t.LocksAt = 0
	t.CommitReqAt = 0
	t.EndAt = 0
	t.Snapshot = 0
}
