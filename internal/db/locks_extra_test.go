package db

import (
	"testing"

	"repro/internal/csrt"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

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
	st := NewStorage(k, StorageConfig{}, nil)
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
	st := NewStorage(k, StorageConfig{}, nil)
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
	s := NewServer(k, 1, csrt.NewCPUSet(1, k, nil), NewStorage(k, StorageConfig{}, nil))
	s.NoteApplied(5)
	s.NoteApplied(3) // regressions ignored
	if s.LastApplied() != 5 {
		t.Fatalf("lastApplied = %d", s.LastApplied())
	}
}

// lockCycle is a lock manager holding the write locks of 64 transactions, and
// 256 more transactions whose write-sets take none of those locks, each the
// size of a new-order's: ten stock rows, ten order lines, an order and a
// new-order row.
func lockCycle() (*LockManager, []*Txn) {
	lm := NewLockManager()
	txns := make([]*Txn, 64+256)
	for i := range txns {
		ws := make([]dbsm.TupleID, 0, 22)
		for j := range 10 {
			ws = append(ws, dbsm.MakeTupleID(5, uint64(i*10+j)*7), dbsm.MakeTupleID(8, uint64(i*10+j)))
		}
		ws = append(ws, dbsm.MakeTupleID(6, uint64(i)), dbsm.MakeTupleID(7, uint64(i)))
		txns[i] = &Txn{TID: uint64(i + 1), WriteSet: dbsm.NewItemSet(ws...)}
	}
	for _, t := range txns[:64] {
		lm.AcquireAll(t, func() {})
	}
	return lm, txns[64:]
}

// TestLockCycleAllocFree pins the uncontended lock cycle, AcquireAll then
// ReleaseCommit of a new-order-sized write-set beside 64 other holders, at 0
// allocations once the holder table has grown. It holds
// LockManager.AcquireAll, tryAcquire, ReleaseCommit and processDirty.
func TestLockCycleAllocFree(t *testing.T) {
	lm, txns := lockCycle()
	held := lm.HeldLocks()
	granted := 0
	grant := func() { granted++ }
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tx := txns[i%len(txns)]
		lm.AcquireAll(tx, grant)
		lm.ReleaseCommit(tx)
		i++
	}); n != 0 {
		t.Fatalf("lock cycle: %v allocs, want 0", n)
	}
	if granted != 1001 || lm.HeldLocks() != held {
		t.Fatalf("%d grants for 1001 cycles, %d locks held, want %d", granted, lm.HeldLocks(), held)
	}
}

// BenchmarkLockCycle times the uncontended lock cycle TestLockCycleAllocFree
// pins.
func BenchmarkLockCycle(b *testing.B) {
	lm, txns := lockCycle()
	grant := func() {}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		tx := txns[i%len(txns)]
		lm.AcquireAll(tx, grant)
		lm.ReleaseCommit(tx)
		i++
	}
}
