package db

import (
	"testing"

	"repro/internal/dbsm"
	"repro/internal/sim"
)

// TestMaxActiveCapRejects pins the admission cap: with MaxActive 1, a second
// concurrent submission is refused with the Rejected outcome — immediately,
// without executing — while the first commits untouched.
func TestMaxActiveCapRejects(t *testing.T) {
	k, s := newTestServer(t, 1)
	s.MaxActive = 1
	t1 := simpleTxn(1, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 1)}, 10*sim.Millisecond)
	t2 := simpleTxn(2, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 2)}, 10*sim.Millisecond)
	var o1, o2 Outcome
	var rejectedAt sim.Time
	t1.Done = func(_ *Txn, o Outcome) { o1 = o }
	t2.Done = func(_ *Txn, o Outcome) { o2 = o; rejectedAt = k.Now() }
	s.Submit(t1)
	k.Schedule(sim.Millisecond, func() { s.Submit(t2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if o1 != Committed {
		t.Fatalf("admitted transaction outcome = %v", o1)
	}
	if o2 != Rejected {
		t.Fatalf("over-cap transaction outcome = %v, want Rejected", o2)
	}
	if rejectedAt != sim.Millisecond {
		t.Fatalf("rejection at %v, want immediate (1ms)", rejectedAt)
	}
	// Rejections are counted on both sides of the ledger: Submitted and
	// Rejected, never Aborted — live accounting stays uniform.
	cs := s.Class("w")
	if cs.Submitted != 2 || cs.Rejected != 1 || cs.Committed != 1 {
		t.Fatalf("class stats: %+v", cs)
	}
	if s.ActiveCount() != 0 {
		t.Fatalf("active count = %d after drain", s.ActiveCount())
	}
}

// TestBackpressureGateRejects pins the replica-driven gate: while set, every
// submission is refused; once cleared, admission resumes; a restart clears a
// stale gate.
func TestBackpressureGateRejects(t *testing.T) {
	k, s := newTestServer(t, 1)
	s.SetBackpressure(true)
	t1 := simpleTxn(1, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 1)}, 5*sim.Millisecond)
	t2 := simpleTxn(2, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 2)}, 5*sim.Millisecond)
	var o1, o2 Outcome
	t1.Done = func(_ *Txn, o Outcome) { o1 = o }
	t2.Done = func(_ *Txn, o Outcome) { o2 = o }
	s.Submit(t1)
	k.Schedule(sim.Millisecond, func() {
		s.SetBackpressure(false)
		s.Submit(t2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if o1 != Rejected {
		t.Fatalf("gated transaction outcome = %v, want Rejected", o1)
	}
	if o2 != Committed {
		t.Fatalf("post-release transaction outcome = %v, want Committed", o2)
	}
	s.SetBackpressure(true)
	s.Crash()
	s.Restart()
	if s.Backpressured() {
		t.Fatal("restart kept a stale backpressure gate")
	}
}

// TestDuplicateSubmitRefused pins idempotent resubmission at the server: a
// second instance of a TID still in flight is refused, so a retried
// transaction can never execute — let alone commit — twice.
func TestDuplicateSubmitRefused(t *testing.T) {
	k, s := newTestServer(t, 1)
	orig := simpleTxn(7, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 1)}, 20*sim.Millisecond)
	dup := simpleTxn(7, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 1)}, 20*sim.Millisecond)
	var oOrig, oDup Outcome
	commits := 0
	orig.Done = func(_ *Txn, o Outcome) {
		oOrig = o
		if o == Committed {
			commits++
		}
	}
	dup.Done = func(_ *Txn, o Outcome) {
		oDup = o
		if o == Committed {
			commits++
		}
	}
	s.Submit(orig)
	k.Schedule(sim.Millisecond, func() { s.Submit(dup) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if oOrig != Committed {
		t.Fatalf("original outcome = %v", oOrig)
	}
	if oDup != Rejected {
		t.Fatalf("duplicate outcome = %v, want Rejected", oDup)
	}
	if commits != 1 {
		t.Fatalf("TID 7 committed %d times", commits)
	}
	// The duplicate's rejection must not have torn down the original's
	// active entry (the finish path deletes by identity, not by TID).
	if s.Class("w").Committed != 1 || s.Class("w").Rejected != 1 {
		t.Fatalf("class stats: %+v", s.Class("w"))
	}
}

// TestBuildHookRunsOnceOnAdmission pins the lazy-build contract: Submit calls
// Txn.Build exactly once, on the attempt it admits and before anything reads
// the sets — never while the site is down, never for a duplicate TID, never
// for a refusal — and a resubmission of the built transaction does not call
// it again.
func TestBuildHookRunsOnceOnAdmission(t *testing.T) {
	k, s := newTestServer(t, 1)
	item := dbsm.MakeTupleID(1, 1)
	builds := 0
	lazy := func(tid uint64) *Txn {
		txn := &Txn{TID: tid, Class: "w"}
		txn.Build = func(b *Txn) {
			if b != txn {
				t.Fatal("hook called with another transaction")
			}
			builds++
			full := simpleTxn(tid, "w", []dbsm.TupleID{item}, 5*sim.Millisecond)
			b.CPU, b.ReadSet, b.WriteSet = full.CPU, full.ReadSet, full.WriteSet
			b.WriteBytes, b.CommitCPU = full.WriteBytes, full.CommitCPU
		}
		return txn
	}
	run := func() {
		t.Helper()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var got Outcome
	note := func(_ *Txn, o Outcome) { got = o }

	// Refused by the gate: not built.
	txn := lazy(1)
	txn.Done = note
	s.SetBackpressure(true)
	s.Submit(txn)
	if got != Rejected || builds != 0 || txn.Build == nil || txn.CPU != 0 {
		t.Fatalf("gate refusal: outcome %v, %d builds, hook kept %v", got, builds, txn.Build != nil)
	}
	// Refused as a duplicate of a TID in flight: not built.
	s.SetBackpressure(false)
	orig := simpleTxn(1, "w", []dbsm.TupleID{item}, 5*sim.Millisecond)
	s.Submit(orig)
	txn.ResetForRetry()
	s.Submit(txn)
	if got != Rejected || builds != 0 {
		t.Fatalf("duplicate refusal: outcome %v, %d builds", got, builds)
	}
	run()
	// Swallowed by a down site: not built, and still not when the restart
	// wakes it.
	s.Crash()
	txn.ResetForRetry()
	s.Submit(txn)
	s.Restart()
	if got != AbortCrash || builds != 0 {
		t.Fatalf("down site: outcome %v, %d builds", got, builds)
	}
	// Admitted: built once, with the write lock taken from the built set.
	txn.ResetForRetry()
	s.Submit(txn)
	if builds != 1 || txn.Build != nil || s.Locks().HeldLocks() != 1 {
		t.Fatalf("admission: %d builds, hook kept %v, %d locks held", builds, txn.Build != nil, s.Locks().HeldLocks())
	}
	run()
	if got != Committed {
		t.Fatalf("admitted transaction outcome = %v", got)
	}
	// Resubmitted after its outcome (the RejectPending road): not rebuilt.
	txn.ResetForRetry()
	s.Submit(txn)
	run()
	if got != Committed || builds != 1 {
		t.Fatalf("resubmission: outcome %v, %d builds", got, builds)
	}
}

// TestRetryKeepsClassBucketPerServer pins the class bucket a transaction
// carries across retries: a resubmission to the server that refused it
// counts in the same bucket without a second lookup, and the same instance
// submitted to another server counts in that server's bucket.
func TestRetryKeepsClassBucketPerServer(t *testing.T) {
	_, s := newTestServer(t, 1)
	_, other := newTestServer(t, 1)
	txn := simpleTxn(3, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 1)}, sim.Millisecond)
	s.SetBackpressure(true)
	s.Submit(txn)
	bucket := txn.stats
	if bucket != s.Class("w") || txn.server != s {
		t.Fatal("refusal did not resolve the class bucket at the refusing server")
	}
	txn.ResetForRetry()
	if txn.stats != bucket {
		t.Fatal("ResetForRetry dropped the resolved bucket")
	}
	s.Submit(txn)
	if cs := s.Class("w"); cs.Submitted != 2 || cs.Rejected != 2 {
		t.Fatalf("refusing server's bucket: %+v", cs)
	}
	txn.ResetForRetry()
	other.Submit(txn)
	if cs := other.Class("w"); txn.stats != cs || cs.Submitted != 1 || s.Class("w").Submitted != 2 {
		t.Fatalf("second server's bucket %+v, first %+v", cs, s.Class("w"))
	}
}
