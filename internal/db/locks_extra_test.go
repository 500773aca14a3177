package db

import (
	"testing"

	"repro/internal/csrt"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

func TestLockManagerRemoveWaiter(t *testing.T) {
	lm := NewLockManager()
	hot := dbsm.NewItemSet(dbsm.MakeTupleID(1, 1))
	holder := &Txn{TID: 1, WriteSet: hot}
	granted := 0
	lm.AcquireAll(holder, func() { granted++ })
	waiter := &Txn{TID: 2, WriteSet: hot.Clone()}
	lm.AcquireAll(waiter, func() { granted++ })
	if granted != 1 || lm.WaiterCount() != 1 {
		t.Fatalf("granted=%d waiters=%d", granted, lm.WaiterCount())
	}
	lm.RemoveWaiter(waiter)
	if lm.WaiterCount() != 0 {
		t.Fatal("waiter not removed")
	}
	// Releasing now must not grant the removed waiter.
	lm.ReleaseAbort(holder)
	if granted != 1 {
		t.Fatal("removed waiter was granted")
	}
}

func TestLockManagerSkipsFinishedWaiters(t *testing.T) {
	lm := NewLockManager()
	hot := dbsm.NewItemSet(dbsm.MakeTupleID(1, 1))
	holder := &Txn{TID: 1, WriteSet: hot}
	lm.AcquireAll(holder, func() {})
	dead := &Txn{TID: 2, WriteSet: hot.Clone(), finished: true}
	liveGranted := false
	live := &Txn{TID: 3, WriteSet: hot.Clone()}
	lm.AcquireAll(dead, func() { t.Fatal("finished txn granted") })
	// Mark finished after enqueue (simulates external abort).
	dead.finished = true
	lm.AcquireAll(live, func() { liveGranted = true })
	lm.ReleaseAbort(holder)
	if !liveGranted {
		t.Fatal("live waiter skipped")
	}
}

func TestLockWaitsCounter(t *testing.T) {
	lm := NewLockManager()
	hot := dbsm.NewItemSet(dbsm.MakeTupleID(1, 1))
	a := &Txn{TID: 1, WriteSet: hot}
	b := &Txn{TID: 2, WriteSet: hot.Clone()}
	lm.AcquireAll(a, func() {})
	lm.AcquireAll(b, func() {})
	if lm.Waits() != 1 {
		t.Fatalf("waits = %d", lm.Waits())
	}
	if lm.HeldLocks() != 1 {
		t.Fatalf("held = %d", lm.HeldLocks())
	}
}

func TestUserAbortPath(t *testing.T) {
	k := sim.NewKernel()
	cpus := csrt.NewCPUSet(1, k, nil)
	st := NewStorage(k, StorageConfig{}, sim.NewRNG(1))
	s := NewServer(k, 1, cpus, st)
	ws := dbsm.NewItemSet(dbsm.MakeTupleID(1, 1))
	var outcome Outcome
	txn := &Txn{
		TID: 1, Class: "neworder", UserAbort: true,
		CPU:     2 * sim.Millisecond,
		ReadSet: ws.Clone(), WriteSet: ws, WriteBytes: 100,
		CommitCPU: sim.Millisecond,
		Done:      nil,
	}
	txn.Done = func(_ *Txn, o Outcome) { outcome = o }
	s.Submit(txn)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if outcome != AbortUser {
		t.Fatalf("outcome = %v, want AbortUser", outcome)
	}
	if st.Sectors() != 0 {
		t.Fatal("user abort must not write to disk")
	}
	if s.Locks().HeldLocks() != 0 {
		t.Fatal("locks leaked")
	}
	if s.Class("neworder").AbortUser != 1 {
		t.Fatal("stats missing user abort")
	}
}

func TestSectorFilterApplied(t *testing.T) {
	k := sim.NewKernel()
	cpus := csrt.NewCPUSet(1, k, nil)
	st := NewStorage(k, StorageConfig{}, sim.NewRNG(1))
	s := NewServer(k, 1, cpus, st)
	s.SectorFilter = func(ws dbsm.ItemSet) int { return 1 } // partial: one row local
	ws := dbsm.NewItemSet(
		dbsm.MakeTupleID(1, 1), dbsm.MakeTupleID(1, 2),
		dbsm.MakeTupleID(1, 3), dbsm.MakeTupleID(1, 4),
	)
	s.ApplyRemote(&dbsm.TxnCert{TID: 9, Site: 2, WriteSet: ws, WriteBytes: 400}, 1)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Sectors() != 1 {
		t.Fatalf("sectors = %d, want 1 (filtered)", st.Sectors())
	}
	if s.RemoteApplied() != 1 {
		t.Fatal("remote apply lost")
	}
}

func TestNoteApplied(t *testing.T) {
	k := sim.NewKernel()
	s := NewServer(k, 1, csrt.NewCPUSet(1, k, nil), NewStorage(k, StorageConfig{}, sim.NewRNG(1)))
	s.NoteApplied(5)
	s.NoteApplied(3) // regressions ignored
	if s.LastApplied() != 5 {
		t.Fatalf("lastApplied = %d", s.LastApplied())
	}
}
