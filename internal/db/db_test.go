package db

import (
	"testing"

	"repro/internal/csrt"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

func newTestServer(t *testing.T, ncpu int) (*sim.Kernel, *Server) {
	t.Helper()
	k := sim.NewKernel()
	cpus := csrt.NewCPUSet(ncpu, k, nil)
	st := NewStorage(k, StorageConfig{}, nil)
	return k, NewServer(k, 1, cpus, st)
}

func simpleTxn(tid uint64, class string, items []dbsm.TupleID, cpu sim.Time) *Txn {
	ws := dbsm.NewItemSet(items...)
	return &Txn{
		TID:        tid,
		Class:      class,
		CPU:        cpu,
		ReadSet:    ws.Clone(),
		WriteSet:   ws,
		WriteBytes: 100,
		CommitCPU:  2 * sim.Millisecond,
	}
}

func TestCentralizedCommitPath(t *testing.T) {
	k, s := newTestServer(t, 1)
	var outcome Outcome
	txn := simpleTxn(1, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 1)}, 5*sim.Millisecond)
	txn.Done = func(_ *Txn, o Outcome) { outcome = o }
	s.Submit(txn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if outcome != Committed {
		t.Fatalf("outcome = %v", outcome)
	}
	// Latency = 5ms exec + 2ms commit + 1 sector write.
	want := 5*sim.Millisecond + 2*sim.Millisecond + sectorLatency
	if txn.Latency() != want {
		t.Fatalf("latency = %v, want %v", txn.Latency(), want)
	}
	if s.Locks().HeldLocks() != 0 {
		t.Fatal("locks leaked")
	}
	if s.Class("w").Committed != 1 {
		t.Fatal("stats not recorded")
	}
}

func TestReadOnlySkipsDiskAndLocks(t *testing.T) {
	k, s := newTestServer(t, 1)
	txn := &Txn{
		TID: 1, Class: "ro", ReadOnly: true, CPU: 3 * sim.Millisecond,
		ReadSet:   dbsm.NewItemSet(dbsm.MakeTupleID(1, 1)),
		CommitCPU: 2 * sim.Millisecond,
	}
	var outcome Outcome
	txn.Done = func(_ *Txn, o Outcome) { outcome = o }
	s.Submit(txn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if outcome != Committed {
		t.Fatalf("outcome = %v", outcome)
	}
	if s.Storage().Sectors() != 0 {
		t.Fatal("read-only transaction touched the disk")
	}
	if txn.Latency() != 5*sim.Millisecond {
		t.Fatalf("latency = %v, want 5ms", txn.Latency())
	}
}

func TestCommitAbortsWaiters(t *testing.T) {
	k, s := newTestServer(t, 2)
	hot := []dbsm.TupleID{dbsm.MakeTupleID(1, 7)}
	t1 := simpleTxn(1, "w", hot, 10*sim.Millisecond)
	t2 := simpleTxn(2, "w", hot, 10*sim.Millisecond)
	var o1, o2 Outcome
	t1.Done = func(_ *Txn, o Outcome) { o1 = o }
	t2.Done = func(_ *Txn, o Outcome) { o2 = o }
	s.Submit(t1)
	k.Schedule(sim.Millisecond, func() { s.Submit(t2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if o1 != Committed {
		t.Fatalf("holder outcome = %v", o1)
	}
	if o2 != AbortLock {
		t.Fatalf("waiter outcome = %v, want AbortLock (write-write conflict)", o2)
	}
	if s.Locks().WaiterCount() != 0 || s.Locks().HeldLocks() != 0 {
		t.Fatal("lock state leaked")
	}
}

func TestAbortReleasesToNextWaiter(t *testing.T) {
	k, s := newTestServer(t, 2)
	hot := []dbsm.TupleID{dbsm.MakeTupleID(1, 7)}
	// t1 will be aborted by certification; t2 should then acquire and
	// commit.
	t1 := simpleTxn(1, "w", hot, 5*sim.Millisecond)
	t2 := simpleTxn(2, "w", hot, 5*sim.Millisecond)
	var o1, o2 Outcome
	t1.Done = func(_ *Txn, o Outcome) { o1 = o }
	t2.Done = func(_ *Txn, o Outcome) { o2 = o }
	s.SetTerminator(func(txn *Txn) {
		// Fail certification for t1, pass t2.
		commit := txn.TID != 1
		seq := uint64(0)
		if commit {
			seq = 1
		}
		k.Schedule(sim.Millisecond, func() { s.ResolveLocal(txn.TID, commit, seq) })
	})
	s.Submit(t1)
	k.Schedule(sim.Millisecond, func() { s.Submit(t2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if o1 != AbortCert {
		t.Fatalf("t1 outcome = %v, want AbortCert", o1)
	}
	if o2 != Committed {
		t.Fatalf("t2 outcome = %v, want Committed after lock handoff", o2)
	}
}

func TestRemotePreemptsLocalHolder(t *testing.T) {
	k, s := newTestServer(t, 1)
	hot := dbsm.MakeTupleID(1, 9)
	local := simpleTxn(1, "w", []dbsm.TupleID{hot}, 50*sim.Millisecond)
	var oLocal Outcome
	local.Done = func(_ *Txn, o Outcome) { oLocal = o }
	s.SetTerminator(func(*Txn) {}) // never resolves
	s.Submit(local)
	cert := &dbsm.TxnCert{
		TID: 99, Site: 2,
		WriteSet:   dbsm.NewItemSet(hot),
		WriteBytes: 200,
	}
	k.Schedule(10*sim.Millisecond, func() { s.ApplyRemote(cert, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if oLocal != AbortLock {
		t.Fatalf("local outcome = %v, want AbortLock (preempted)", oLocal)
	}
	if s.RemoteApplied() != 1 {
		t.Fatalf("remote applied = %d", s.RemoteApplied())
	}
	if s.LastApplied() != 1 {
		t.Fatalf("lastApplied = %d", s.LastApplied())
	}
	if s.Locks().HeldLocks() != 0 {
		t.Fatal("locks leaked after remote apply")
	}
}

func TestCertifiedRemoteWaitsForCertifiedHolder(t *testing.T) {
	k, s := newTestServer(t, 1)
	hot := dbsm.MakeTupleID(1, 9)
	c1 := &dbsm.TxnCert{TID: 1, Site: 2, WriteSet: dbsm.NewItemSet(hot), WriteBytes: 64 * 1024}
	c2 := &dbsm.TxnCert{TID: 2, Site: 3, WriteSet: dbsm.NewItemSet(hot), WriteBytes: 100}
	s.ApplyRemote(c1, 1)
	s.ApplyRemote(c2, 2) // must wait for c1's write-back, not abort it
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.RemoteApplied() != 2 {
		t.Fatalf("remote applied = %d, want 2", s.RemoteApplied())
	}
}

func TestDistributedCommitLatencyIncludesCertification(t *testing.T) {
	k, s := newTestServer(t, 1)
	txn := simpleTxn(1, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 1)}, 5*sim.Millisecond)
	var outcome Outcome
	txn.Done = func(_ *Txn, o Outcome) { outcome = o }
	s.SetTerminator(func(tx *Txn) {
		k.Schedule(8*sim.Millisecond, func() { s.ResolveLocal(tx.TID, true, 1) })
	})
	s.Submit(txn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if outcome != Committed {
		t.Fatalf("outcome = %v", outcome)
	}
	want := 5*sim.Millisecond + 2*sim.Millisecond + 8*sim.Millisecond + sectorLatency
	if txn.Latency() != want {
		t.Fatalf("latency = %v, want %v", txn.Latency(), want)
	}
	if s.CertLat.N() != 1 || s.CertLat.Mean() != 8 {
		t.Fatalf("cert latency sample: n=%d mean=%v", s.CertLat.N(), s.CertLat.Mean())
	}
}

func TestPreemptedTxnLaterCertAbortIsConsistent(t *testing.T) {
	k, s := newTestServer(t, 1)
	hot := dbsm.MakeTupleID(1, 5)
	local := simpleTxn(1, "w", []dbsm.TupleID{hot}, sim.Millisecond)
	var oLocal Outcome
	local.Done = func(_ *Txn, o Outcome) { oLocal = o }
	var captured *Txn
	s.SetTerminator(func(tx *Txn) { captured = tx })
	s.Submit(local)
	// Local txn reaches termination at ~3ms; a conflicting remote commits
	// at 5ms, preempting it; its own certification verdict (abort)
	// arrives at 10ms.
	k.Schedule(5*sim.Millisecond, func() {
		s.ApplyRemote(&dbsm.TxnCert{TID: 50, Site: 2, WriteSet: dbsm.NewItemSet(hot), WriteBytes: 10}, 1)
	})
	k.Schedule(10*sim.Millisecond, func() {
		if captured != nil {
			s.ResolveLocal(captured.TID, false, 0)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if oLocal != AbortLock {
		t.Fatalf("local outcome = %v, want AbortLock", oLocal)
	}
	if s.Inconsistencies() != 0 {
		t.Fatal("inconsistency counter moved")
	}
	// The class must count exactly one abort, not two.
	cs := s.Class("w")
	if cs.AbortLock != 1 || cs.AbortCert != 0 {
		t.Fatalf("class stats: %+v", cs)
	}
}

func TestCrashFreezesClients(t *testing.T) {
	k, s := newTestServer(t, 1)
	done := false
	txn := simpleTxn(1, "w", []dbsm.TupleID{dbsm.MakeTupleID(1, 1)}, 20*sim.Millisecond)
	txn.Done = func(*Txn, Outcome) { done = true }
	s.Submit(txn)
	k.Schedule(5*sim.Millisecond, s.Crash)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("transaction completed on a crashed site")
	}
	// New submissions are silently dropped.
	txn2 := simpleTxn(2, "w", nil, sim.Millisecond)
	txn2.Done = func(*Txn, Outcome) { done = true }
	s.Submit(txn2)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("crashed site accepted work")
	}
}

// TestStorageQueueing fills the device's eight slots twice over: eight
// sectors complete after one sector latency, the eight queued behind them
// after two, and the device is busy throughout.
func TestStorageQueueing(t *testing.T) {
	k := sim.NewKernel()
	st := NewStorage(k, StorageConfig{}, nil)
	var doneAt []sim.Time
	for range 2 * maxConcurrent {
		st.WriteSectors(1, func() { doneAt = append(doneAt, k.Now()) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(doneAt) != 2*maxConcurrent {
		t.Fatalf("completions = %d", len(doneAt))
	}
	if doneAt[maxConcurrent-1] != sectorLatency || doneAt[maxConcurrent] != 2*sectorLatency || doneAt[2*maxConcurrent-1] != 2*sectorLatency {
		t.Fatalf("completion times = %v", doneAt)
	}
	if st.MaxQueueLen() != maxConcurrent {
		t.Fatalf("max queue = %d, want %d", st.MaxQueueLen(), maxConcurrent)
	}
	if st.Utilization(2*sectorLatency) != 100 {
		t.Fatalf("utilization = %v, want 100", st.Utilization(2*sectorLatency))
	}
}

func TestMultiCPUParallelism(t *testing.T) {
	k, s := newTestServer(t, 3)
	finished := 0
	for i := 0; i < 3; i++ {
		txn := &Txn{
			TID: uint64(i), Class: "ro", ReadOnly: true,
			CPU:       10 * sim.Millisecond,
			CommitCPU: 0,
		}
		txn.Done = func(*Txn, Outcome) { finished++ }
		s.Submit(txn)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 3 {
		t.Fatalf("finished = %d", finished)
	}
	if k.Now() != 10*sim.Millisecond {
		t.Fatalf("3 CPUs should run 3 txns in parallel; took %v", k.Now())
	}
}

// TestScriptRunsQuanta pins the sequence the server derives from the two
// script numbers: the processing time in slices of one quantum with a short
// last one — so on one CPU a later transaction gets in after the first
// slice, not after the whole script — and nothing allocated at all when an
// already-bound transaction is resubmitted, however long its script is
// (Server.Submit, bind, step, commitPhase, finish).
func TestScriptRunsQuanta(t *testing.T) {
	k, s := newTestServer(t, 1)
	ends := map[uint64]sim.Time{}
	done := func(txn *Txn, _ Outcome) { ends[txn.TID] = k.Now() }
	long := &Txn{TID: 1, Class: "ro", ReadOnly: true, CPU: 2500 * sim.Microsecond, Quantum: sim.Millisecond, Done: done}
	short := &Txn{TID: 2, Class: "ro", ReadOnly: true, CPU: 500 * sim.Microsecond, Done: done}
	s.Submit(long)
	s.Submit(short)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// long's slices are 1 ms, 1 ms, 0.5 ms. short's single slice runs between
	// the first two and its commit job (a CPU job too) between the last two;
	// behind an unsliced script it would have ended at 3 ms, and with the
	// short slice first at 2 ms.
	if ends[2] != 2500*sim.Microsecond || ends[1] != 3*sim.Millisecond {
		t.Fatalf("short ended at %v, long at %v; want 2.5ms and 3ms", ends[2], ends[1])
	}

	run := func(txn *Txn) float64 {
		return testing.AllocsPerRun(50, func() {
			txn.ResetForRetry()
			s.Submit(txn)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	brief := &Txn{TID: 3, Class: "ro", ReadOnly: true, CPU: sim.Millisecond, Quantum: sim.Millisecond}
	lengthy := &Txn{TID: 4, Class: "ro", ReadOnly: true, CPU: 30 * sim.Millisecond, Quantum: sim.Millisecond}
	run(brief)
	run(lengthy) // both now bound to s
	if a, b := run(brief), run(lengthy); a != 0 || b != 0 {
		t.Fatalf("a resubmitted, bound transaction allocates %v times on a 2-step script and %v on a 31-step one, want 0", a, b)
	}
}

func TestOutcomeString(t *testing.T) {
	for _, o := range []Outcome{Committed, AbortLock, AbortCert, AbortCrash} {
		if o.String() == "unknown" {
			t.Fatalf("missing name for %d", o)
		}
	}
	if Outcome(0).String() != "unknown" {
		t.Fatal("zero outcome should be unknown")
	}
}

func TestClassStatsRates(t *testing.T) {
	cs := &ClassStats{Committed: 75, AbortLock: 20, AbortCert: 5}
	if cs.Aborted() != 25 {
		t.Fatalf("aborted = %d", cs.Aborted())
	}
	if cs.AbortRate() != 25 {
		t.Fatalf("rate = %v", cs.AbortRate())
	}
}

// TestRemoteApplyAllocFree pins the remote write-set install: once the
// pools are warm, Server.ApplyRemote through its lock grant, the write-back
// and remoteApply.finish allocates nothing. When the kernel drains, the
// server's remote-apply pool and the storage's sector and request pools
// have nothing lent.
func TestRemoteApplyAllocFree(t *testing.T) {
	k, s := newTestServer(t, 1)
	cert := &dbsm.TxnCert{
		TID: 99, Site: 2,
		WriteSet:   dbsm.NewItemSet(dbsm.MakeTupleID(1, 1), dbsm.MakeTupleID(1, 2), dbsm.MakeTupleID(2, 7)),
		WriteBytes: 300,
	}
	var seq uint64
	apply := func() {
		seq++
		s.ApplyRemote(cert, seq)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 {
		apply()
	}
	if n := testing.AllocsPerRun(100, apply); n != 0 {
		t.Fatalf("warm remote apply: %v allocs/op, want 0", n)
	}
	if s.RemoteApplied() != 16+101 || s.Locks().HeldLocks() != 0 {
		t.Fatalf("%d remote applies, %d locks held; want %d and 0", s.RemoteApplied(), s.Locks().HeldLocks(), 16+101)
	}
	if r, o, q := s.freeRemote.Out(), s.storage.freeBatches.Out(), s.storage.freeReqs.Out(); r != 0 || o != 0 || q != 0 {
		t.Fatalf("after the kernel drained: %d remote applies, %d sector batches, %d requests lent", r, o, q)
	}
}

// TestRecycledSurrogateAllocFree pins the remote install as the replica
// drives it: each write-set is decoded into one reused record, and the next
// decode overwrites it while the install still holds its locks. The pooled
// surrogate locks and releases its own copy of the set, kept in its array
// for the next install, so every lock is released — a surrogate that aliased
// the record would release the next message's rows instead — and, warm,
// ApplyRemote through the release allocates nothing (remoteApply.ws).
func TestRecycledSurrogateAllocFree(t *testing.T) {
	k, s := newTestServer(t, 1)
	wires := [2][]byte{
		(&dbsm.TxnCert{TID: 98, Site: 2, WriteSet: dbsm.NewItemSet(dbsm.MakeTupleID(1, 1), dbsm.MakeTupleID(1, 2), dbsm.MakeTupleID(2, 7))}).Marshal(),
		(&dbsm.TxnCert{TID: 99, Site: 3, WriteSet: dbsm.NewItemSet(dbsm.MakeTupleID(3, 1), dbsm.MakeTupleID(3, 2))}).Marshal(),
	}
	var rec dbsm.TxnCert
	var seq uint64
	apply := func() {
		seq++
		if err := rec.UnmarshalFrom(wires[seq%2]); err != nil {
			t.Fatal(err)
		}
		s.ApplyRemote(&rec, seq)
		if err := rec.UnmarshalFrom(wires[(seq+1)%2]); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if n := s.Locks().HeldLocks(); n != 0 {
			t.Fatalf("install %d left %d locks held", seq, n)
		}
	}
	for range 16 {
		apply()
	}
	if n := testing.AllocsPerRun(100, apply); n != 0 {
		t.Fatalf("warm decode and remote apply: %v allocs/op, want 0", n)
	}
	if s.RemoteApplied() != 16+101 || s.freeRemote.Out() != 0 {
		t.Fatalf("%d remote applies, %d surrogates lent; want %d and 0", s.RemoteApplied(), s.freeRemote.Out(), 16+101)
	}
}
