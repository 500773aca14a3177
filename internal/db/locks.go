package db

import "repro/internal/dbsm"

// LockManager implements the concurrency control policy of Section 3.1,
// modeled on PostgreSQL's multi-version behaviour: fetched items are
// ignored; updated items are exclusively locked. All of a transaction's
// locks are acquired atomically (its items are known beforehand), so
// deadlock detection is unnecessary and waiting transactions hold nothing.
// When a holder commits, every transaction waiting on its locks aborts
// (write-write conflict); when it aborts, the next waiter acquires. Already
// certified transactions (remote or local) preempt and abort uncertified
// local holders — those would abort in certification anyway.
//
// Holders live in a dbsm.TupleMap, an open-addressed table whose empty cell
// is a nil holder, and a release deletes the cell: the uncontended
// acquire/release cycle hashes each tuple into one array and allocates
// nothing, and the table stays sized to the locks held at once rather than
// every tuple ever touched. Waiters live in a Go map keyed by tuple, with an
// entry only while a tuple is contended, so the uncontended cycle never
// touches it.
type LockManager struct {
	// OnPreempt is invoked when an uncertified holder is aborted by a
	// certified transaction; the server finalizes the abort.
	OnPreempt func(*Txn)
	// OnWaiterAbort is invoked when a waiter aborts because the holder
	// committed.
	OnWaiterAbort func(*Txn)

	holders dbsm.TupleMap[*Txn]
	waiters map[dbsm.TupleID][]*lockWaiter
	dirty   []dbsm.TupleID // released locks pending waiter processing
	busy    bool           // re-entrancy guard for processDirty

	waits int64 // transactions that had to wait at least once
}

type lockWaiter struct {
	t     *Txn
	grant func()
}

// NewLockManager builds an empty manager.
func NewLockManager() *LockManager {
	return &LockManager{waiters: make(map[dbsm.TupleID][]*lockWaiter)}
}

// Waits reports how many acquisitions had to block.
func (lm *LockManager) Waits() int64 { return lm.waits }

// AcquireAll atomically acquires every lock in t's write set, invoking grant
// when all are held. A read-only transaction is granted immediately. If a
// lock is busy the transaction waits (holding nothing). Certified
// transactions preempt uncertified holders.
func (lm *LockManager) AcquireAll(t *Txn, grant func()) {
	lm.tryAcquire(t, grant)
	lm.processDirty()
}

func (lm *LockManager) tryAcquire(t *Txn, grant func()) {
	if len(t.WriteSet) == 0 {
		grant()
		return
	}
	if t.certified {
		// Preempt uncertified holders: they would fail certification
		// against this already-certified transaction anyway.
		for _, id := range t.WriteSet {
			if h := lm.holders.Get(id); h != nil && !h.certified && h != t {
				lm.releaseHolder(h)
				if lm.OnPreempt != nil {
					lm.OnPreempt(h)
				}
			}
		}
	}
	// Atomic check: all free or none taken.
	for _, id := range t.WriteSet {
		if h := lm.holders.Get(id); h != nil && h != t {
			lm.waiters[id] = append(lm.waiters[id], &lockWaiter{t: t, grant: grant})
			lm.waits++
			return
		}
	}
	for _, id := range t.WriteSet {
		lm.holders.Put(id, t)
	}
	t.holding = true
	grant()
}

// releaseHolder removes t as holder of all its locks without processing
// waiters yet (the caller batches that via processDirty).
func (lm *LockManager) releaseHolder(t *Txn) {
	for _, id := range t.WriteSet {
		if lm.holders.Get(id) == t {
			lm.holders.Delete(id)
			lm.dirty = append(lm.dirty, id)
		}
	}
	t.holding = false
}

// ReleaseCommit releases t's locks after commit: waiting uncertified
// transactions abort (write-write conflict with the committed holder);
// certified waiters proceed to acquisition.
func (lm *LockManager) ReleaseCommit(t *Txn) {
	if !t.holding {
		return
	}
	for _, id := range t.WriteSet {
		if lm.holders.Get(id) != t {
			continue
		}
		lm.holders.Delete(id)
		if ws, ok := lm.waiters[id]; ok {
			kept := ws[:0]
			for _, w := range ws {
				if w.t.certified {
					kept = append(kept, w)
				} else if lm.OnWaiterAbort != nil {
					lm.OnWaiterAbort(w.t)
				}
			}
			lm.setWaiters(id, kept)
		}
		lm.dirty = append(lm.dirty, id)
	}
	t.holding = false
	lm.processDirty()
}

// setWaiters stores a trimmed wait list, dropping the map entry when it
// empties so the table tracks only contended tuples.
func (lm *LockManager) setWaiters(id dbsm.TupleID, ws []*lockWaiter) {
	if len(ws) == 0 {
		delete(lm.waiters, id)
	} else {
		lm.waiters[id] = ws
	}
}

// ReleaseAbort releases t's locks after an abort: the next waiters retry
// acquisition.
func (lm *LockManager) ReleaseAbort(t *Txn) {
	if !t.holding {
		return
	}
	lm.releaseHolder(t)
	lm.processDirty()
}

// processDirty retries waiters of released locks, FIFO, until quiescent.
func (lm *LockManager) processDirty() {
	if lm.busy {
		return
	}
	if len(lm.waiters) == 0 { // the uncontended path: no one to retry
		lm.dirty = lm.dirty[:0]
		return
	}
	lm.busy = true
	// Index cursor, not head reslicing: the queue may grow while draining
	// (retrying the next waiter), and keeping the base pointer lets the
	// backing array be reused run-long instead of reallocated per append.
	for i := 0; i < len(lm.dirty); i++ {
		id := lm.dirty[i]
		if lm.holders.Get(id) != nil {
			continue
		}
		ws, ok := lm.waiters[id]
		if !ok {
			continue
		}
		w := ws[0]
		lm.setWaiters(id, ws[1:])
		if w.t.finished || w.t.aborted {
			lm.dirty = append(lm.dirty, id) // try the next waiter
			continue
		}
		lm.tryAcquire(w.t, w.grant)
	}
	lm.dirty = lm.dirty[:0]
	lm.busy = false
}

// HeldLocks reports how many locks are currently held (for tests).
func (lm *LockManager) HeldLocks() int { return lm.holders.Len() }
