package db

import (
	"testing"

	"repro/internal/csrt"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

func restartServer(t *testing.T) (*sim.Kernel, *Server) {
	t.Helper()
	k := sim.NewKernel()
	rng := sim.NewRNG(1)
	storage := NewStorage(k, StorageConfig{}, rng.Fork("disk"))
	return k, NewServer(k, 1, csrt.NewCPUSet(1, k, nil), storage)
}

func restartTxn(tid uint64, done func(*Txn, Outcome)) *Txn {
	return &Txn{
		TID:      tid,
		Class:    "t",
		WriteSet: dbsm.NewItemSet(dbsm.MakeTupleID(0, tid)),
		CPU:      10 * sim.Millisecond,
		Done:     done,
	}
}

// TestRestartAbortsInFlight: transactions in flight at crash time resolve
// with AbortCrash at restart, waking their blocked clients exactly once.
func TestRestartAbortsInFlight(t *testing.T) {
	k, s := restartServer(t)
	outcomes := map[uint64]Outcome{}
	for tid := uint64(1); tid <= 3; tid++ {
		tx := restartTxn(tid, func(tx *Txn, o Outcome) { outcomes[tx.TID] = o })
		s.Submit(tx)
	}
	k.Schedule(2*sim.Millisecond, func() { s.Crash() })
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 0 {
		t.Fatalf("outcomes before restart: %v", outcomes)
	}
	s.Restart()
	if err := k.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("woke %d clients, want 3", len(outcomes))
	}
	for tid, o := range outcomes {
		if o != AbortCrash {
			t.Fatalf("txn %d outcome %v, want abort-crash", tid, o)
		}
	}
	if got := s.Class("t").AbortCrash; got != 3 {
		t.Fatalf("AbortCrash counter %d, want 3", got)
	}
	if s.Locks().HeldLocks() != 0 {
		t.Fatalf("restarted server still holds %d locks", s.Locks().HeldLocks())
	}
}

// TestRestartWakesBlockedSubmits: a submission swallowed while the site was
// down is woken at restart without polluting the class statistics (it never
// executed).
func TestRestartWakesBlockedSubmits(t *testing.T) {
	k, s := restartServer(t)
	s.Crash()
	var woken Outcome
	s.Submit(restartTxn(9, func(tx *Txn, o Outcome) { woken = o }))
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if woken != 0 {
		t.Fatal("client woken while the site was still down")
	}
	s.Restart()
	if woken != AbortCrash {
		t.Fatalf("blocked submit outcome %v, want abort-crash", woken)
	}
	cs := s.Class("t")
	if cs.Submitted != 0 || cs.AbortCrash != 0 {
		t.Fatalf("swallowed submit leaked into stats: %+v", cs)
	}
}

// TestRestartFencesStaleRemoteApply: a remote-apply disk completion issued
// by the dead incarnation must not touch the rebuilt lock table after the
// restart (epoch fence).
func TestRestartFencesStaleRemoteApply(t *testing.T) {
	k, s := restartServer(t)
	c := &dbsm.TxnCert{TID: 77, Site: 2, WriteSet: dbsm.NewItemSet(dbsm.MakeTupleID(0, 5))}
	s.ApplyRemote(c, 1)
	// Crash and restart while the write-back is still queued on the disk.
	s.Crash()
	s.Restart()
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	if s.RemoteApplied() != 0 {
		t.Fatal("stale remote apply completed across the restart")
	}
	if s.Locks().HeldLocks() != 0 {
		t.Fatalf("stale apply left %d locks", s.Locks().HeldLocks())
	}
	// A fresh install on the new incarnation still works.
	s.ApplyRemote(c, 2)
	if err := k.RunUntil(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if s.RemoteApplied() != 1 {
		t.Fatalf("post-restart remote apply did not complete: %d", s.RemoteApplied())
	}
}

// TestRestoreApplied seeds the snapshot horizon.
func TestRestoreApplied(t *testing.T) {
	_, s := restartServer(t)
	s.Crash()
	s.Restart()
	s.RestoreApplied(41)
	if s.LastApplied() != 41 {
		t.Fatalf("LastApplied %d, want 41", s.LastApplied())
	}
}
