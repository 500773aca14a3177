package db

import (
	"sort"

	"repro/internal/csrt"
	"repro/internal/dbsm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ClassStats aggregates per-transaction-class results, feeding the paper's
// Tables 1 and 2 (abort rate breakdowns) and Figure 5.
type ClassStats struct {
	Submitted  int64
	Committed  int64
	AbortLock  int64
	AbortCert  int64
	AbortUser  int64
	AbortCrash int64
	// Rejected counts explicit admission-control refusals. A rejection is
	// not an abort: the transaction never conflicted with anything, the
	// server just declined to take it on — so it stays out of Aborted()
	// and the abort-rate figures.
	Rejected int64
	// Lat holds committed-transaction latencies in milliseconds.
	Lat metrics.Sample
}

// Aborted reports all aborts of the class.
func (c *ClassStats) Aborted() int64 {
	return c.AbortLock + c.AbortCert + c.AbortUser + c.AbortCrash
}

// AbortRate reports aborted/completed as a percentage.
func (c *ClassStats) AbortRate() float64 {
	done := c.Committed + c.Aborted()
	return metrics.Rate(c.Aborted(), done)
}

// Server is one database site (Section 3.1): CPUs, storage, locks, and the
// transaction execution pipeline. Replication (termination protocol) is
// plugged in via SetTerminator; without it the server runs as a classic
// centralized database, the paper's baseline configuration.
type Server struct {
	k       *sim.Kernel
	site    dbsm.SiteID
	cpus    *csrt.CPUSet
	storage *Storage
	lm      *LockManager

	// ReadSetThreshold upgrades large read-sets to table locks before
	// certification (0 disables).
	ReadSetThreshold int

	// MaxActive caps concurrently-active transactions: a Submit that would
	// exceed it is rejected outright (admission control). 0 disables the
	// cap. Bounding concurrency below the thrash point is what keeps
	// committed throughput up when the offered load passes saturation.
	MaxActive int
	// backpressured gates admission from below: the replica asserts it
	// while its termination backlog sits above the high watermark.
	backpressured bool

	// SectorFilter, if set, maps a committed write-set to the number of
	// sectors written locally. Partial replication installs a filter
	// counting only locally-replicated rows; nil writes every row.
	SectorFilter func(ws dbsm.ItemSet) int

	terminator  func(*Txn)
	pendingCert map[uint64]*Txn
	// active tracks every in-flight transaction from Submit to finish, so a
	// crash-and-restart can resolve them: their clients are blocked waiting
	// for an outcome that the dead incarnation will never produce.
	active      map[uint64]*Txn
	lastApplied uint64
	down        bool

	classes map[string]*ClassStats
	// CertLat samples the distributed termination latency in ms (commit
	// request to certification outcome) for Figure 7(b).
	CertLat metrics.Sample
	// CertDecideLat samples the certification-decision latency in ms:
	// commit request to the first certification verdict. Under the
	// conservative protocol the verdict arrives with the final delivery,
	// so this equals CertLat; under optimistic delivery the tentative
	// verdict lands one ordering round earlier — the latency the
	// optimistic variant trades risk of rollback for.
	CertDecideLat metrics.Sample
	// LatCommitted samples all committed-transaction latencies in ms.
	LatCommitted metrics.Sample
	// LatReadOnly and LatUpdate split latencies for the Figure 4
	// validation.
	LatReadOnly metrics.Sample
	LatUpdate   metrics.Sample

	remoteApplied   int64
	inconsistencies int64
	freeRemote      sim.FreeList[*remoteApply]

	// epoch counts restarts; continuations captured by a dead incarnation
	// (e.g. a remote-apply disk completion in flight at crash time) compare
	// it to fence themselves out after the site comes back.
	epoch int
	// blockedSubmits holds transactions swallowed by Submit while the site
	// was down: never executed, never counted, but their clients are blocked
	// and must be woken when the site restarts.
	blockedSubmits []*Txn
}

// NewServer builds a site over its CPU set and storage.
func NewServer(k *sim.Kernel, site dbsm.SiteID, cpus *csrt.CPUSet, storage *Storage) *Server {
	s := &Server{
		k:           k,
		site:        site,
		cpus:        cpus,
		storage:     storage,
		lm:          NewLockManager(),
		pendingCert: make(map[uint64]*Txn),
		active:      make(map[uint64]*Txn),
		classes:     make(map[string]*ClassStats),
	}
	s.wireLockHooks()
	return s
}

// wireLockHooks installs the preemption/abort callbacks on the current lock
// manager (also used by Restart, which builds a fresh one).
func (s *Server) wireLockHooks() {
	s.lm.OnPreempt = func(t *Txn) {
		t.aborted = true
		s.finish(t, AbortLock)
	}
	s.lm.OnWaiterAbort = func(t *Txn) {
		t.aborted = true
		s.finish(t, AbortLock)
	}
}

// Site reports this server's replica identifier.
func (s *Server) Site() dbsm.SiteID { return s.site }

// Storage exposes the disk model (resource usage reporting).
func (s *Server) Storage() *Storage { return s.storage }

// CPUs exposes the processor set.
func (s *Server) CPUs() *csrt.CPUSet { return s.cpus }

// Locks exposes the lock manager (tests, introspection).
func (s *Server) Locks() *LockManager { return s.lm }

// SetTerminator installs the distributed termination hook: it receives
// update transactions entering the committing stage (Section 3.3). Leaving
// it unset yields a centralized, non-replicated server.
func (s *Server) SetTerminator(fn func(*Txn)) { s.terminator = fn }

// LastApplied reports the certification sequence applied at this site.
func (s *Server) LastApplied() uint64 { return s.lastApplied }

// RemoteApplied reports how many remote transactions were installed.
func (s *Server) RemoteApplied() int64 { return s.remoteApplied }

// Inconsistencies counts safety violations observed (a transaction aborted
// locally but committed by certification); it must remain zero.
func (s *Server) Inconsistencies() int64 { return s.inconsistencies }

// Down reports whether the site has crashed.
func (s *Server) Down() bool { return s.down }

// Crash stops the site: in-flight transactions never complete and their
// clients stay blocked, as in the paper's crash fault model. A later Restart
// resolves them with AbortCrash.
func (s *Server) Crash() { s.down = true }

// Restart brings a crashed site back up with empty volatile state: the lock
// table is rebuilt from scratch, pending certifications are forgotten, and
// every transaction left in flight by the dead incarnation — including
// submissions swallowed while the site was down — is resolved with
// AbortCrash so its blocked client can resume. Durable state (the applied
// sequence horizon) is restored separately via RestoreApplied once the
// recovery snapshot installs.
func (s *Server) Restart() {
	if !s.down {
		return
	}
	s.down = false
	s.epoch++
	s.lm = NewLockManager()
	s.wireLockHooks()
	s.pendingCert = make(map[uint64]*Txn)
	// The backpressure assertion belonged to the dead incarnation's
	// replica; the rebuilt one starts with an empty backlog.
	s.backpressured = false
	// Resolve in-flight transactions in TID order so restart is
	// deterministic regardless of map iteration.
	tids := make([]uint64, 0, len(s.active))
	for tid := range s.active {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		t := s.active[tid]
		t.aborted = true
		s.finish(t, AbortCrash)
	}
	// Swallowed submissions were never executed or counted: wake their
	// clients without touching the class statistics.
	for _, t := range s.blockedSubmits {
		t.aborted = true
		t.finished = true
		t.EndAt = s.k.Now()
		if t.Done != nil {
			t.Done(t, AbortCrash)
		}
	}
	s.blockedSubmits = nil
}

// RestoreApplied resets the applied-sequence horizon from a recovery
// snapshot.
func (s *Server) RestoreApplied(seq uint64) { s.lastApplied = seq }

// Class returns (creating if needed) the stats bucket for a class.
func (s *Server) Class(name string) *ClassStats {
	cs := s.classes[name]
	if cs == nil {
		cs = &ClassStats{}
		s.classes[name] = cs
	}
	return cs
}

// EachClass iterates classes in sorted order.
func (s *Server) EachClass(fn func(name string, cs *ClassStats)) {
	names := make([]string, 0, len(s.classes))
	for n := range s.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fn(n, s.classes[n])
	}
}

// Totals sums class counters. Every submitted transaction resolves into
// exactly one of committed, aborted, or rejected.
func (s *Server) Totals() (submitted, committed, aborted, rejected int64) {
	for _, cs := range s.classes {
		submitted += cs.Submitted
		committed += cs.Committed
		aborted += cs.Aborted()
		rejected += cs.Rejected
	}
	return
}

// SetBackpressure gates admission from the replication layer: while set,
// every new submission is rejected. The replica toggles it as its
// termination backlog crosses the high/low watermarks.
func (s *Server) SetBackpressure(on bool) { s.backpressured = on }

// Backpressured reports the admission gate state (tests, introspection).
func (s *Server) Backpressured() bool { return s.backpressured }

// ActiveCount reports in-flight transactions (tests, introspection).
func (s *Server) ActiveCount() int { return len(s.active) }

// Submit starts a transaction: take the snapshot, acquire all write locks
// atomically, then execute.
func (s *Server) Submit(t *Txn) {
	if s.down {
		// The client blocks, as in the paper's crash model. The
		// transaction is remembered so a restart can wake the client with
		// AbortCrash; without a recovery event it stays blocked forever.
		s.blockedSubmits = append(s.blockedSubmits, t)
		return
	}
	// Admission control: explicit rejection instead of joining an
	// already-thrashing pipeline; the client backs off and retries. A
	// duplicate of a TID still in flight is refused the same way — the
	// original decides the transaction's fate, so it can never execute (and
	// commit) twice. Both refusals are one refusal, so testing the integer
	// gate before probing the map cannot be observed.
	if s.backpressured || (s.MaxActive > 0 && len(s.active) >= s.MaxActive) || s.active[t.TID] != nil {
		s.refuse(t)
		return
	}
	if t.Build != nil {
		build := t.Build
		t.Build = nil
		build(t)
	}
	s.active[t.TID] = t
	t.SubmitAt = s.k.Now()
	t.Snapshot = s.lastApplied
	s.classOf(t).Submitted++
	// One continuation closure serves every pipeline step of this
	// transaction: stale callbacks (after preemption or crash) are fenced
	// by the aborted/finished flags, which every abort path sets before
	// any further event can fire.
	t.stepFn = func() {
		if t.aborted || t.finished || s.down {
			return
		}
		s.step(t)
	}
	s.lm.AcquireAll(t, func() {
		t.LocksAt = s.k.Now()
		s.step(t)
	})
}

// refuse turns a submission away unexecuted: counted as submitted and
// rejected, finished at once. It reads TID, Class and Done and nothing else
// of the transaction, which is what lets a submitter leave the rest unbuilt.
func (s *Server) refuse(t *Txn) {
	t.SubmitAt = s.k.Now()
	s.classOf(t).Submitted++
	s.finish(t, Rejected)
}

// classOf is t's class bucket at s, looked up once per (transaction,
// server): a refused transaction that backs off and comes back to the same
// server finds it on itself instead of hashing its class name again.
func (s *Server) classOf(t *Txn) *ClassStats {
	if t.server != s {
		t.server, t.stats = s, s.Class(t.Class)
	}
	return t.stats
}

// step advances the execution script: every fetch, then the processing time
// a quantum at a time, then the commit phase.
func (s *Server) step(t *Txn) {
	if t.aborted || t.finished || s.down {
		return
	}
	switch {
	case t.fetched < t.Fetches:
		t.fetched++
		if s.storage.Read(t.stepFn) {
			t.stepFn() // cache hit: no storage resources consumed
		}
	case t.cpuSpent < t.CPU:
		q := t.CPU - t.cpuSpent
		if t.Quantum > 0 && q > t.Quantum {
			q = t.Quantum
		}
		t.cpuSpent += q
		s.cpus.SubmitSim(q, t.stepFn)
	default:
		s.commitPhase(t)
	}
}

// commitPhase runs the commit operation's CPU cost, then finishes locally
// (read-only or centralized) or enters the distributed termination protocol.
func (s *Server) commitPhase(t *Txn) {
	s.cpus.SubmitSim(t.CommitCPU, func() {
		if t.aborted || t.finished || s.down {
			return
		}
		switch {
		case t.UserAbort:
			// Application rollback at the end of execution.
			s.lm.ReleaseAbort(t)
			s.finish(t, AbortUser)
		case t.ReadOnly:
			// Read-only transactions commit locally; no I/O is
			// performed at commit (Section 4.1).
			s.finish(t, Committed)
		case s.terminator == nil:
			// Centralized baseline: write back and release. One
			// sector per written row: updated tuples live on
			// distinct pages.
			s.storage.WriteSectors(len(t.WriteSet), func() {
				if s.down || t.finished {
					return
				}
				s.lm.ReleaseCommit(t)
				s.finish(t, Committed)
			})
		default:
			t.CommitReqAt = s.k.Now()
			s.pendingCert[t.TID] = t
			s.terminator(t)
		}
	})
}

// NoteCertDecision records the first certification verdict for a pending
// local transaction — the optimistic tentative decision, sampled one
// ordering round before the final outcome. Resolution still waits for
// ResolveLocal; only the decision-latency split is measured here.
func (s *Server) NoteCertDecision(tid uint64) {
	t, ok := s.pendingCert[tid]
	if !ok || s.down || t.decided {
		return
	}
	t.decided = true
	s.CertDecideLat.Add((s.k.Now() - t.CommitReqAt).Millis())
}

// ResolveLocal delivers the certification outcome for a local transaction,
// in total delivery order. On commit, the write-back happens while the locks
// are still held; on abort, locks release immediately. It reports whether the
// transaction was known: false means no pending certification entry exists —
// the submitting incarnation crashed — and the caller must install a
// committed write-set through the remote path instead, or the recovered
// site's storage would silently miss the group's commit.
func (s *Server) ResolveLocal(tid uint64, commit bool, seq uint64) bool {
	t, ok := s.pendingCert[tid]
	if !ok {
		return false
	}
	if s.down {
		return true
	}
	delete(s.pendingCert, tid)
	lat := (s.k.Now() - t.CommitReqAt).Millis()
	s.CertLat.Add(lat)
	if !t.decided {
		// Conservative protocol: decision and outcome coincide.
		t.decided = true
		s.CertDecideLat.Add(lat)
	}
	if t.finished {
		// Preempted by a certified transaction while awaiting its own
		// outcome. Certification must have aborted it everywhere;
		// anything else is a safety violation.
		if commit {
			s.inconsistencies++
		}
		return true
	}
	if !commit {
		s.lm.ReleaseAbort(t)
		s.finish(t, AbortCert)
		return true
	}
	t.certified = true
	if seq > s.lastApplied {
		s.lastApplied = seq
	}
	s.storage.WriteSectors(s.writeSectors(t.WriteSet), func() {
		if s.down || t.finished {
			return
		}
		s.lm.ReleaseCommit(t)
		s.finish(t, Committed)
	})
	return true
}

// RejectPending turns a pending-certification transaction back into an
// explicit rejection — the replica calls it when the replication stack's
// bounded transmit queue refused the termination multicast. The transaction
// never entered the group-wide certification stream, so dropping it is safe:
// locks release and the client sees Rejected, exactly as if admission had
// refused it up front.
func (s *Server) RejectPending(tid uint64) {
	t, ok := s.pendingCert[tid]
	if !ok || s.down {
		return
	}
	delete(s.pendingCert, tid)
	if t.finished {
		return
	}
	t.aborted = true
	s.lm.ReleaseAbort(t)
	s.finish(t, Rejected)
}

// NoteApplied advances the local snapshot horizon without installing
// anything — used by partial replication when a certified transaction wrote
// no locally-stored rows.
func (s *Server) NoteApplied(seq uint64) {
	if seq > s.lastApplied {
		s.lastApplied = seq
	}
}

// ApplyRemote installs a remotely-certified transaction: acquire its locks
// (preempting conflicting local transactions), write back, release.
func (s *Server) ApplyRemote(c *dbsm.TxnCert, seq uint64) {
	s.applyRemote(c, seq, s.writeSectors(c.WriteSet))
}

// ApplyRemotePrepared installs a remotely-certified transaction whose
// write-set was already written back speculatively at tentative delivery
// (PreApplyRemote): the install under locks flips the prepared version
// visible with a single commit-record sector instead of re-writing every
// row. The disk queue serializes it behind the speculative write, so a
// still-in-flight pre-apply is waited out naturally.
func (s *Server) ApplyRemotePrepared(c *dbsm.TxnCert, seq uint64) {
	s.applyRemote(c, seq, 1)
}

func (s *Server) applyRemote(c *dbsm.TxnCert, seq uint64, sectors int) {
	if s.down {
		return
	}
	if seq > s.lastApplied {
		s.lastApplied = seq
	}
	ra := s.freeRemote.Get()
	if ra == nil {
		ra = &remoteApply{s: s}
		ra.granted = func() { ra.s.storage.WriteSectors(ra.sectors, ra.written) }
		ra.written = ra.finish
	}
	ra.epoch = s.epoch
	ra.t = Txn{
		TID:        c.TID,
		Class:      "(remote)",
		WriteSet:   c.WriteSet,
		WriteBytes: c.WriteBytes,
		certified:  true,
	}
	ra.sectors = sectors
	s.lm.AcquireAll(&ra.t, ra.granted)
}

// remoteApply is the pooled state of one remote write-set install: the
// surrogate transaction holding the locks plus the two continuations
// (lock-grant → write-back → release), bound once at allocation.
type remoteApply struct {
	s       *Server
	t       Txn
	sectors int
	epoch   int // incarnation that issued the install
	granted func()
	written func()
}

// finish releases the surrogate's locks and recycles it.
func (ra *remoteApply) finish() {
	s := ra.s
	if s.down || ra.epoch != s.epoch {
		// The issuing incarnation crashed; a restarted site must not let
		// the stale completion touch the rebuilt lock table.
		return
	}
	s.lm.ReleaseCommit(&ra.t)
	s.remoteApplied++
	ra.t = Txn{}
	s.freeRemote.Put(ra)
}

// PreApplyRemote speculatively writes a tentatively-certified remote
// write-set to a scratch area, overlapping the disk I/O with the ordering
// round. No locks are taken — a wrong speculation must not abort local
// transactions — so the data only becomes visible when ApplyRemotePrepared
// installs it after the final delivery confirms the order.
func (s *Server) PreApplyRemote(ws dbsm.ItemSet) {
	if s.down {
		return
	}
	s.storage.WriteSectors(s.writeSectors(ws), func() {})
}

// writeSectors sizes a commit's local write-back.
func (s *Server) writeSectors(ws dbsm.ItemSet) int {
	if s.SectorFilter != nil {
		return s.SectorFilter(ws)
	}
	return len(ws)
}

// finish records the outcome exactly once and notifies the issuer.
func (s *Server) finish(t *Txn, outcome Outcome) {
	if t.finished {
		return
	}
	t.finished = true
	t.EndAt = s.k.Now()
	// Identity-checked removal: a rejected duplicate shares the TID of the
	// still-active original and must not evict its entry.
	if cur, ok := s.active[t.TID]; ok && cur == t {
		delete(s.active, t.TID)
	}
	cs := t.stats
	switch outcome {
	case Committed:
		cs.Committed++
		lat := t.Latency().Millis()
		cs.Lat.Add(lat)
		s.LatCommitted.Add(lat)
		if t.ReadOnly {
			s.LatReadOnly.Add(lat)
		} else {
			s.LatUpdate.Add(lat)
		}
	case AbortLock:
		cs.AbortLock++
	case AbortCert:
		cs.AbortCert++
	case AbortUser:
		cs.AbortUser++
	case AbortCrash:
		cs.AbortCrash++
	case Rejected:
		cs.Rejected++
	}
	if t.Done != nil {
		t.Done(t, outcome)
	}
}
