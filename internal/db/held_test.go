package db

import (
	"slices"
	"testing"

	"repro/internal/csrt"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

// heldServer is a one-CPU server whose fetches hit the cache with the given
// ratio (1e-12: a fetch is always a storage read in flight).
func heldServer(hit float64) (*sim.Kernel, *Server) {
	k := sim.NewKernel()
	st := NewStorage(k, StorageConfig{CacheHitRatio: hit}, sim.NewRNG(1))
	return k, NewServer(k, 1, csrt.NewCPUSet(1, k, nil), st)
}

var heldHot = dbsm.MakeTupleID(1, 7)

// heldTxn is an update of heldHot; its outcome and whether it was held as
// Done fired land in the two pointers.
func heldTxn(fetches int, cpu, commitCPU sim.Time, got *Outcome, heldInDone *bool) *Txn {
	return &Txn{
		TID: 1, Class: "w", Fetches: fetches, CPU: cpu, CommitCPU: commitCPU,
		ReadSet: dbsm.NewItemSet(heldHot), WriteSet: dbsm.NewItemSet(heldHot), WriteBytes: 100,
		Done: func(t *Txn, o Outcome) {
			if *got != 0 {
				panic("Done fired twice")
			}
			*got, *heldInDone = o, t.Held()
		},
	}
}

// preempt installs a certified remote write of heldHot, which aborts an
// uncertified local holder at once.
func preempt(s *Server) {
	s.ApplyRemote(&dbsm.TxnCert{TID: 99, Site: 2, WriteSet: dbsm.NewItemSet(heldHot), WriteBytes: 10}, 1)
}

// TestHeldUntilEveryContinuationRuns preempts a lock holder at each point a
// continuation of it is in flight — a storage read that missed the cache, a
// CPU slice, the commit CPU job, the pendingCert entry — and checks the
// ownership rule: Done fires at the preemption, Held stays true until that
// continuation has run (for pendingCert: until ResolveLocal(commit=false)
// deletes the entry), and is false afterwards.
func TestHeldUntilEveryContinuationRuns(t *testing.T) {
	lat := StorageConfig{}.Latency()
	cases := []struct {
		name               string
		hit                float64
		fetches            int
		cpu, commitCPU     sim.Time
		replicated         bool
		preemptAt, landsAt sim.Time // the preemption; when the continuation in flight runs
	}{
		{"storage read miss", 1e-12, 1, sim.Millisecond, sim.Millisecond, false, lat / 2, lat},
		{"CPU slice", 1, 0, 4 * sim.Millisecond, sim.Millisecond, false, 2 * sim.Millisecond, 4 * sim.Millisecond},
		{"commit CPU job", 1, 0, sim.Millisecond, 4 * sim.Millisecond, false, 3 * sim.Millisecond, 5 * sim.Millisecond},
		{"pendingCert", 1, 0, sim.Millisecond, sim.Millisecond, true, 3 * sim.Millisecond, 10 * sim.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, s := heldServer(tc.hit)
			var got Outcome
			var heldInDone bool
			txn := heldTxn(tc.fetches, tc.cpu, tc.commitCPU, &got, &heldInDone)
			if tc.replicated {
				s.SetTerminator(func(*Txn) {})
				k.Schedule(tc.landsAt, func() { s.ResolveLocal(txn.TID, false, 0) })
			}
			if txn.Held() {
				t.Fatal("held before Submit")
			}
			s.Submit(txn)
			if !txn.Held() {
				t.Fatal("not held after Submit")
			}
			k.Schedule(tc.preemptAt, func() { preempt(s) })
			if err := k.RunUntil(tc.landsAt - 1); err != nil {
				t.Fatal(err)
			}
			if got != AbortLock || !heldInDone {
				t.Fatalf("at the preemption: outcome %v, held as Done fired %v; want abort-lock and held", got, heldInDone)
			}
			if !txn.Held() {
				t.Fatal("let go of before the continuation in flight ran")
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if txn.Held() {
				t.Fatal("still held after the continuation ran")
			}
			if s.Inconsistencies() != 0 || s.Class("w").AbortLock != 1 || s.Class("w").Aborted() != 1 {
				t.Fatalf("class stats %+v, %d inconsistencies", s.Class("w"), s.Inconsistencies())
			}
		})
	}
}

// TestHeldThroughRejectPendingAndRestart covers the other roads out: a
// RejectPending deletes the pendingCert entry before Done fires; a
// submission swallowed by a down site is held until Restart wakes it; a
// transaction in a storage read at the crash is held until the read lands;
// and one in pendingCert at the crash stays held for good, because Restart
// forgets the entry — which costs its submitter a fresh transaction, never a
// stale continuation.
func TestHeldThroughRejectPendingAndRestart(t *testing.T) {
	t.Run("RejectPending", func(t *testing.T) {
		k, s := heldServer(1)
		var got Outcome
		var heldInDone bool
		txn := heldTxn(0, sim.Millisecond, sim.Millisecond, &got, &heldInDone)
		s.SetTerminator(func(*Txn) {})
		s.Submit(txn)
		k.Schedule(3*sim.Millisecond, func() { s.RejectPending(txn.TID) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != Rejected || heldInDone || txn.Held() {
			t.Fatalf("outcome %v, held as Done fired %v, held after %v; want rejected and let go of", got, heldInDone, txn.Held())
		}
	})
	t.Run("blocked submit", func(t *testing.T) {
		_, s := heldServer(1)
		var got Outcome
		var heldInDone bool
		txn := heldTxn(0, sim.Millisecond, sim.Millisecond, &got, &heldInDone)
		s.Crash()
		s.Submit(txn)
		if !txn.Held() {
			t.Fatal("a swallowed submission is not held")
		}
		s.Restart()
		if got != AbortCrash || heldInDone || txn.Held() {
			t.Fatalf("outcome %v, held as Done fired %v, held after %v; want abort-crash and let go of", got, heldInDone, txn.Held())
		}
	})
	t.Run("storage read at crash", func(t *testing.T) {
		k, s := heldServer(1e-12)
		var got Outcome
		var heldInDone bool
		txn := heldTxn(1, sim.Millisecond, sim.Millisecond, &got, &heldInDone)
		s.Submit(txn)
		lat := StorageConfig{}.Latency()
		k.Schedule(lat/2, func() { s.Crash(); s.Restart() })
		if err := k.RunUntil(lat - 1); err != nil {
			t.Fatal(err)
		}
		if got != AbortCrash || !heldInDone || !txn.Held() {
			t.Fatalf("after restart: outcome %v, held as Done fired %v, held %v; want abort-crash and held", got, heldInDone, txn.Held())
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if txn.Held() {
			t.Fatal("still held after the read landed")
		}
	})
	t.Run("pendingCert at crash", func(t *testing.T) {
		k, s := heldServer(1)
		var got Outcome
		var heldInDone bool
		txn := heldTxn(0, sim.Millisecond, sim.Millisecond, &got, &heldInDone)
		s.SetTerminator(func(*Txn) {})
		s.Submit(txn)
		k.Schedule(3*sim.Millisecond, func() { s.Crash(); s.Restart() })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != AbortCrash || !txn.Held() {
			t.Fatalf("outcome %v, held %v; want abort-crash and held for good", got, txn.Held())
		}
		if s.ResolveLocal(txn.TID, true, 1) {
			t.Fatal("the restarted server still knows the forgotten entry")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("Recycle of a held transaction did not panic")
			}
		}()
		txn.Recycle()
	})
}

// TestRecycledTxnCountsInItsNewClass: a transaction recycled into another
// class at the same server is counted in the new class's bucket, not in the
// one its last life resolved.
func TestRecycledTxnCountsInItsNewClass(t *testing.T) {
	k, s := heldServer(1)
	txn := &Txn{TID: 1, Class: "a", ReadOnly: true, CPU: sim.Millisecond}
	s.Submit(txn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	txn.Recycle()
	txn.TID, txn.Class, txn.ReadOnly, txn.CPU = 2, "b", true, sim.Millisecond
	s.Submit(txn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	a, b := s.Class("a"), s.Class("b")
	if a.Submitted != 1 || a.Committed != 1 || b.Submitted != 1 || b.Committed != 1 {
		t.Fatalf("class a %+v, class b %+v; want one commit each", a, b)
	}
}

// TestRecycledSubmitAllocFree pins the centralized transaction path for a
// recycled transaction: Txn.Recycle, dbsm.AppendItemSet into its arrays,
// Server.Submit with classOf and the lock grant, step through a cache-missing
// fetch and two CPU slices, commitPhase, the write-back, finish and Done —
// with every continuation bound once (Server.bind) — allocate nothing. So
// does Txn.CertInfoInto, the message the replica builds at termination.
func TestRecycledSubmitAllocFree(t *testing.T) {
	k, s := heldServer(1e-12)
	items := []dbsm.TupleID{dbsm.MakeTupleID(1, 3), dbsm.MakeTupleID(1, 1), dbsm.MakeTupleID(2, 9)}
	var txn Txn
	var tid uint64
	committed := 0
	done := func(_ *Txn, o Outcome) {
		if o == Committed {
			committed++
		}
	}
	cycle := func() {
		txn.Recycle()
		tid++
		txn.TID, txn.Class, txn.Done = tid, "w", done
		txn.Fetches, txn.CPU, txn.Quantum, txn.CommitCPU = 1, 2*sim.Millisecond, sim.Millisecond, sim.Millisecond
		txn.ReadSet = dbsm.AppendItemSet(txn.ReadSet[:0], items...)
		txn.WriteSet = dbsm.AppendItemSet(txn.WriteSet[:0], items[:2]...)
		txn.WriteBytes = 200
		s.Submit(&txn)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 {
		cycle()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("recycled Submit→commit→Done: %v allocs/op, want 0", n)
	}
	if committed != 16+101 || s.Locks().HeldLocks() != 0 || txn.Held() {
		t.Fatalf("%d commits, %d locks held, held %v; want %d, 0, false", committed, s.Locks().HeldLocks(), txn.Held(), 16+101)
	}
	if s.Storage().Sectors() < 2*(16+101) {
		t.Fatalf("%d sectors: the fetches did not miss the cache", s.Storage().Sectors())
	}
	var c dbsm.TxnCert
	if n := testing.AllocsPerRun(100, func() { txn.CertInfoInto(&c, 1, 0) }); n != 0 || c.TID != tid || len(c.WriteSet) != 2 {
		t.Fatalf("CertInfoInto: %v allocs/op, record %+v", n, c)
	}
}

// TestRecyclePoisonsKeptSets: Recycle keeps the sets' arrays for the next
// transaction, so race builds fill them with all-ones first — a reader that
// kept a set past the server's hold sees garbage — and other builds leave
// them alone.
func TestRecyclePoisonsKeptSets(t *testing.T) {
	txn := &Txn{
		ReadSet:  dbsm.NewItemSet(dbsm.MakeTupleID(1, 1), heldHot),
		WriteSet: dbsm.NewItemSet(heldHot),
	}
	kept := []dbsm.ItemSet{txn.ReadSet, txn.WriteSet}
	txn.Recycle()
	for i, s := range kept {
		poisoned := !slices.ContainsFunc(s, func(id dbsm.TupleID) bool { return id != ^dbsm.TupleID(0) })
		if poisoned != sim.RaceBuild {
			t.Errorf("kept set %d after Recycle: %v, poisoned = %v, want %v", i, s, poisoned, sim.RaceBuild)
		}
	}
}
