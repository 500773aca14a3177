// Package replica glues one site's database server to the replication
// prototypes: it is the distributed termination path of Section 3.3. Update
// transactions entering the committing stage are marshaled and atomically
// multicast through the group communication stack; upon delivery each
// replica runs the deterministic certification procedure and either installs
// the write-set (remote transactions) or resolves the local transaction.
//
// Two protocol variants share this glue. The conservative variant certifies
// on final (total-order) delivery only. The optimistic variant
// (Options.Optimistic) runs a two-stage pipeline: on tentative delivery —
// the stack's spontaneous receive order, one ordering round before the
// sequencer's assignment — it certifies speculatively and pre-writes remote
// write-sets to scratch storage; on final delivery it confirms the queued
// verdict with no further certification work when the orders agree, and
// rolls back plus re-certifies when they diverge. Commit logs are appended
// only on final delivery, so both variants decide identically at every
// replica — the optimistic one just overlaps certification and write-back
// with the ordering round.
package replica

import (
	"bytes"

	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/gcs"
	"repro/internal/recovery"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xgroup"
)

// The real-code cost model of the replica glue under the deterministic
// profiler.
const (
	// certCostPerItem is the CPU cost per identifier comparison during
	// certification.
	certCostPerItem = 40 * sim.Nanosecond
	// marshalCostPerByte is the CPU cost per marshaled byte, in nanoseconds.
	marshalCostPerByte = 2.0
)

// maxHistory bounds the certifier's retained write-sets — the history a
// stale snapshot is certified against, and so the pages a recovery
// transfers. It does not bound the last-writer index, which covers a fixed
// window of recent commits whatever maxHistory is. Pruning is deterministic
// across replicas (a pure function of the certified stream).
const maxHistory = 50000

// Options tune the replica glue.
type Options struct {
	// Optimistic selects the optimistic-delivery protocol variant: the
	// two-stage certify-on-tentative / commit-on-final pipeline described
	// in the package comment.
	Optimistic bool
	// ReadSetThreshold upgrades large read-sets to table locks before
	// multicasting (0 disables).
	ReadSetThreshold int
	// Replicates, when set, is this site's stored-here predicate under
	// partial replication — degree-k placement (the paper's Section 5.2
	// mitigation for the read-one/write-all disk bottleneck) and replication
	// groups alike: only tuples for which it returns true are stored — and
	// written back — at this site. Nil stores everything. Certification is
	// untouched by it, so the safety property is too; only the write-back
	// fan-out shrinks.
	Replicates func(dbsm.TupleID) bool
	// Recovering starts the replica in recovery mode: final deliveries are
	// buffered (and speculation suppressed) until InstallSnapshot seeds
	// the certifier and commit log from a donor and replays the buffered
	// delta. Used for a site rejoining after a crash.
	Recovering bool

	// Group mode (partial replication by replication group). GroupCount > 1
	// enables it: this stack orders only its own group's transactions,
	// stream payloads carry a one-byte xgroup tag, and multi-group
	// transactions run the cross-group commit round (see xcommit.go).
	// SitesPerGroup fixes the contiguous site numbering (group g owns sites
	// (g-1)·S+1 .. g·S), and with it this site's group; GroupOf classifies
	// a tuple's owning group (0 = replicated catalog). Incompatible with
	// Recovering.
	GroupCount    int
	SitesPerGroup int
	GroupOf       func(dbsm.TupleID) int
}

// Stats counts replica-level termination activity. It is the one place a
// replica counter is declared: the replica increments these fields in place,
// core.Results embeds the run total, and core's fold merges incarnations and
// sites field by field — sum, or max where a field is tagged `fold:"max"`.
// Every field must be an integer.
type Stats struct {
	// Delivered is the number of totally-ordered certification messages
	// processed.
	Delivered int64
	// CertDrops counts delivered payloads discarded because dbsm.Unmarshal
	// (or an xgroup parser) rejected them. Always zero in a healthy run: the
	// reliable multicast only hands up complete messages, so a drop here
	// means a marshaling or wire-format bug, not network loss.
	CertDrops int64
	// Tentative counts tentative certifications, including
	// re-certifications after rollbacks (optimistic variant only).
	Tentative int64
	// Rollbacks counts tentative/final order divergences that unwound the
	// speculative state.
	Rollbacks int64
	// Recertified counts transactions re-certified after a rollback.
	Recertified int64
	// PreApplied counts remote write-sets speculatively pre-written to
	// scratch storage at tentative delivery.
	PreApplied int64
	// PreApplyWasted counts pre-writes whose transaction finally aborted:
	// disk bandwidth spent on a wrong speculation.
	PreApplyWasted int64
	// DeltaApplied counts deliveries buffered during a recovery transfer
	// and replayed at snapshot install (the delta catch-up cost).
	DeltaApplied int64
	// BacklogPeak is the high-water mark of the in-flight termination
	// backlog (local transactions multicast but not yet settled): a peak
	// gauge, so totals take the maximum instead of the sum. The server
	// keeps each such transaction active unless a certified transaction
	// preempts it, so admission's MaxActive bounds it up to preemptions.
	BacklogPeak int64 `fold:"max"`
	// Cross-group commit round counters (group mode only). MultiGroupTxns
	// counts multi-group transactions this site coordinated; XCommitted
	// and XAborted count cross-group decisions applied at this site;
	// XRetries counts coordinator retransmit ticks; XHandovers counts
	// rounds inherited from a dead coordinator.
	MultiGroupTxns int64
	XCommitted     int64
	XAborted       int64
	XRetries       int64
	XHandovers     int64
	// XVetoes counts local certifications aborted by the cross-group veto:
	// a transaction conflicted with an active prepare reservation.
	XVetoes int64
	// XPrepFrags counts prepare relay fragments sent because the item sets
	// alone exceeded the MTU (padding trimming could not fit the frame).
	XPrepFrags int64
}

// tentTxn is the replica-side state of one tentatively-delivered message:
// the decoded record the speculative queue holds a pointer to, and what was
// done on its tentative verdict. It comes from takeTent and goes back through
// recycleTent where the message leaves r.tent.
type tentTxn struct {
	tc         dbsm.TxnCert
	out        dbsm.Outcome
	preApplied bool
}

// Replica wires a server into the group.
type Replica struct {
	rt     runtimeapi.Runtime
	stack  *gcs.Stack
	server *db.Server
	cert   *dbsm.Certifier
	spec   *dbsm.SpecCertifier // optimistic variant only
	site   dbsm.SiteID
	opts   Options

	// x runs the cross-group commit round in group mode (nil otherwise).
	x *xmgr

	tent     map[uint64]*tentTxn    // TID -> outstanding tentative state
	freeTent sim.FreeList[*tentTxn] // recycled tentative states, records included
	// finalRec is the one record every final delivery without tentative
	// state decodes into: nothing keeps it past settle.
	finalRec dbsm.TxnCert
	// narrow is the record localWrites builds a partly stored write-set
	// into: PreApplyRemote reads it and ApplyRemote copies it before either
	// returns, so it is free again by the next call.
	narrow dbsm.TxnCert
	// done marks messages one optimistic stage settled without the other,
	// which consumes the mark and skips. Final delivery or a discard can beat
	// the scheduled tentative job — at a sequencer whose majority acks fast,
	// or on a busy CPU — and the late job must then skip the message without
	// reading its payload (the stack has the bytes back by then) or it would
	// poison the speculative queue with an entry that can never finalize.
	// The other way round, a tentative job that found the body malformed
	// counted the drop, and final delivery must not count it again.
	done map[uint64]bool

	// scratch is the reusable certification-marshal buffer: the stack's
	// Multicast copies the payload into stream chunks before returning,
	// so the buffer is free again by the next termination.
	scratch []byte
	// term is the certification message stageTerminate builds. Its sets
	// alias the local transaction's, whose arrays are reused once the
	// server lets go of it, so every reader — MarshalTo, xgroup.Split,
	// xgroup.AppendPrepare — copies what it keeps.
	term dbsm.TxnCert
	// freeThunks recycles the one-shot job closures handed to the
	// runtime's scheduler (terminate / tentative / discard stages).
	freeThunks sim.FreeList[*replicaThunk]

	// backlog counts in-flight terminations (multicast but unresolved);
	// stats.BacklogPeak is its high-water mark.
	backlog int

	commitLog trace.CommitLog
	// stats is counted in place; Stats() adds the counters the speculative
	// certifier owns.
	stats   Stats
	stopped bool

	// Recovery state: while recovering, final deliveries land in
	// recoverBuf instead of being processed; lastGlobal tracks the highest
	// total-order sequence processed (the donor-readiness condition).
	recovering bool
	recoverBuf []bufferedDelivery
	lastGlobal uint64
}

// bufferedDelivery is one final delivery held back during a recovery
// transfer.
type bufferedDelivery struct {
	global  uint64
	payload []byte
}

// New builds the replica glue and installs its hooks on the stack and the
// server.
func New(rt runtimeapi.Runtime, stack *gcs.Stack, server *db.Server, opts Options) *Replica {
	r := &Replica{
		rt:         rt,
		stack:      stack,
		server:     server,
		cert:       dbsm.NewCertifier(),
		site:       server.Site(),
		opts:       opts,
		recovering: opts.Recovering,
	}
	r.cert.Charge = func(items int) {
		rt.Charge(sim.Time(items) * certCostPerItem)
	}
	r.cert.MaxHistory = maxHistory
	if opts.Optimistic {
		r.spec = dbsm.NewSpecCertifier(r.cert)
		r.tent = make(map[uint64]*tentTxn)
		r.done = make(map[uint64]bool)
		stack.OnOptimistic(r.onOptimistic)
		stack.OnOptimisticDiscard(r.onOptDiscard)
	}
	server.SetTerminator(r.terminate)
	stack.OnDeliver(r.onDeliver)
	if opts.GroupCount > 1 {
		r.x = newXmgr(r)
		r.cert.Veto = r.x.veto
		stack.OnRelay(r.x.onRelay)
		stack.OnViewChange(r.x.onViewChange)
	}
	if opts.Replicates != nil {
		server.SectorFilter = func(ws dbsm.ItemSet) int {
			n := r.replicatedCount(ws)
			if n < 1 {
				n = 1 // the commit record itself
			}
			return n
		}
	}
	return r
}

// replicatedCount reports how many of the write-set's rows this site stores.
func (r *Replica) replicatedCount(ws dbsm.ItemSet) int {
	n := 0
	for _, id := range ws {
		if r.opts.Replicates(id) {
			n++
		}
	}
	return n
}

// Stop ceases activity (site crash).
func (r *Replica) Stop() { r.stopped = true }

// CommitLog exposes the site's committed sequence for the off-line safety
// check.
func (r *Replica) CommitLog() *trace.CommitLog { return &r.commitLog }

// Certifier exposes the certification state (tests, introspection).
func (r *Replica) Certifier() *dbsm.Certifier { return r.cert }

// Release ends the replica's life: its certifier's storage (Certifier.Release)
// and, in group mode, the cross-group records' array and transaction table
// go to shelves the next replica takes from. Afterwards XRecords reads empty;
// the commit log and Stats stay readable. Nothing may run on the replica
// again.
func (r *Replica) Release() {
	r.cert.Release()
	if r.x != nil {
		r.x.release()
	}
}

// Stats reports the replica's termination counters.
func (r *Replica) Stats() Stats {
	s := r.stats
	if r.spec != nil {
		s.Tentative = r.spec.Tentatives
		s.Rollbacks = r.spec.Rollbacks
	}
	return s
}

// XRecords exposes this site's cross-group transaction records for the
// off-line cross-group serialization check (nil outside group mode). Their
// item sets alias the prepares delivered on the group's stream. They live
// until Release, which shelves their array: read them before.
func (r *Replica) XRecords() []trace.XRecord {
	if r.x == nil {
		return nil
	}
	return r.x.records
}

// Recovering reports whether the replica is still buffering deliveries for
// a pending snapshot install.
func (r *Replica) Recovering() bool { return r.recovering }

// LastGlobal reports the highest total-order sequence this replica has
// processed — a donor must have passed the joiner's catch-up sequence
// before its snapshot covers everything the joiner will never receive.
func (r *Replica) LastGlobal() uint64 { return r.lastGlobal }

// CertSeq reports the certifier's commit sequence.
func (r *Replica) CertSeq() uint64 { return r.cert.Seq() }

// ReadSectors implements recovery.Donor: the donor-side disk cost of
// serving an exported snapshot's pages.
func (r *Replica) ReadSectors(n int, done func()) {
	r.server.Storage().ReadSectors(n, done)
}

// ExportSnapshot implements recovery.Donor: a deep snapshot of this
// replica's replicated-database state. sinceApplied is the joiner's applied
// horizon at crash; when the retained certification history still reaches
// back that far, only the pages written since are shipped, otherwise the
// whole written working set (every page the retained history knows about)
// goes on the wire.
func (r *Replica) ExportSnapshot(sinceApplied uint64) *recovery.Snapshot {
	st := r.cert.ExportState()
	if r.spec != nil {
		// An optimistic donor may hold unconfirmed tentative commits in
		// the shared certifier; a rollback after export would leave the
		// joiner with phantom commits. Ship only the finalized prefix —
		// the commit log and lastGlobal already cover exactly that.
		histLen, seq := r.spec.Finalized()
		for i := histLen; i < len(st.History); i++ {
			st.History[i] = dbsm.CommitRecord{}
		}
		st.History = st.History[:histLen]
		st.Seq = seq
	}
	snap := &recovery.Snapshot{
		Donor:       r.site,
		Global:      r.lastGlobal,
		Cert:        st,
		Commits:     r.commitLog.Entries(),
		LastApplied: r.server.LastApplied(),
	}
	full := sinceApplied < st.Pruned
	pages := make(map[dbsm.TupleID]struct{})
	for i := range st.History {
		rec := &st.History[i]
		if !full && rec.Seq <= sinceApplied {
			continue
		}
		for _, id := range rec.WriteSet {
			pages[id] = struct{}{}
		}
	}
	snap.Pages = len(pages)
	if snap.Pages == 0 {
		snap.Pages = 1 // the log anchor page
	}
	snap.Bytes = st.WireSize() + 16*int64(len(snap.Commits)) + 4096*int64(snap.Pages)
	return snap
}

// InstallSnapshot implements recovery.Joiner: restart the server, seed
// certifier, commit log, and applied horizon from the donor's state, replay
// the buffered delta, and leave recovery mode. The work runs as a real job
// so its CPU cost lands on the recovering site; done fires afterwards.
func (r *Replica) InstallSnapshot(snap *recovery.Snapshot, done func()) {
	r.rt.StartJob(0, func() {
		r.installSnapshot(snap)
		if done != nil {
			done()
		}
	})
}

func (r *Replica) installSnapshot(snap *recovery.Snapshot) {
	if r.stopped || !r.recovering {
		return
	}
	r.server.Restart()
	r.cert.ImportState(snap.Cert)
	r.commitLog.Reset(snap.Commits)
	r.server.RestoreApplied(snap.LastApplied)
	if snap.Global > r.lastGlobal {
		r.lastGlobal = snap.Global
	}
	// Delta catch-up: replay deliveries that were certified group-wide
	// while the transfer was in flight. Buffered entries at or below the
	// snapshot's horizon are already reflected in it.
	buf := r.recoverBuf
	r.recoverBuf = nil
	r.recovering = false
	prev := snap.Global
	for _, bd := range buf {
		if bd.global <= snap.Global {
			continue
		}
		if bd.global != prev+1 {
			// The stack delivers gap-free, so a hole means deliveries
			// the snapshot should have covered are missing (e.g. a
			// transfer raced a readmission). Count each as a drop —
			// CertDrops is never silent and fails the campaign verdict
			// — instead of diverging quietly.
			r.stats.CertDrops += int64(bd.global - prev - 1)
		}
		prev = bd.global
		r.stats.DeltaApplied++
		if bd.global > r.lastGlobal {
			r.lastGlobal = bd.global
		}
		r.certifyFinal(bd.payload)
	}
}

// replicaThunk is a pooled one-shot job: the closure handed to the runtime
// scheduler is bound once at allocation, so scheduling a pipeline stage
// allocates nothing in steady state.
type replicaThunk struct {
	r       *Replica
	stage   func(r *Replica, txn *db.Txn, payload []byte, tid uint64)
	txn     *db.Txn
	payload []byte
	tid     uint64
	fire    func()
}

func (th *replicaThunk) run() {
	r, stage, txn, payload, tid := th.r, th.stage, th.txn, th.payload, th.tid
	th.stage, th.txn, th.payload = nil, nil, nil
	r.freeThunks.Put(th)
	if r.stopped {
		return
	}
	stage(r, txn, payload, tid)
}

// schedule queues a pipeline stage as its own zero-delay job.
func (r *Replica) schedule(stage func(*Replica, *db.Txn, []byte, uint64), txn *db.Txn, payload []byte, tid uint64) {
	th := r.freeThunks.Get()
	if th == nil {
		th = &replicaThunk{r: r}
		th.fire = th.run
	}
	th.stage, th.txn, th.payload, th.tid = stage, txn, payload, tid
	r.rt.StartJob(0, th.fire)
}

// terminate is the server's distributed termination hook: gather the
// transaction's sets and values and atomically multicast them. The hook is
// invoked from simulated-job context; the marshaling and multicast run as a
// real job so their cost occupies the CPU.
func (r *Replica) terminate(t *db.Txn) {
	if r.stopped {
		return
	}
	r.schedule(stageTerminate, t, nil, 0)
}

func stageTerminate(r *Replica, t *db.Txn, _ []byte, _ uint64) {
	tc := &r.term
	t.CertInfoInto(tc, r.site, r.opts.ReadSetThreshold)
	if r.x != nil {
		r.x.terminate(tc)
		return
	}
	r.submit(tc.MarshalTo(r.scratch))
}

// submit hands one termination's wire form — built on r.scratch, which it
// keeps for the next one — to the stack: charge the marshaling, multicast,
// and count the termination into the backlog.
func (r *Replica) submit(wire []byte) {
	r.scratch = wire
	r.rt.Charge(sim.Time(marshalCostPerByte * float64(len(wire))))
	r.stack.Multicast(wire)
	r.backlog++
	r.stats.BacklogPeak = max(r.stats.BacklogPeak, int64(r.backlog))
}

// chargeUnmarshal accounts the CPU cost of decoding a payload.
func (r *Replica) chargeUnmarshal(n int) {
	r.rt.Charge(sim.Time(marshalCostPerByte * float64(n)))
}

// peekSpec reads, while the upcall still owns the payload, what the optimistic
// stages need to know about a tentatively-delivered message: the
// certification bytes (group-mode stream tag stripped) and the TID they carry.
// It returns nil when there is nothing to speculate on — the replica is
// recovering (the certifier state is in transit; the final delivery is
// buffered and certified at install), the message is a cross-group prepare or
// decision (final-only events: they mutate the reservation table tentative
// outcomes depend on), or the header is too short to hold a TID.
func (r *Replica) peekSpec(payload []byte) (cert []byte, tid uint64) {
	if r.recovering {
		return nil, 0
	}
	if r.x != nil {
		if len(payload) == 0 || payload[0] != xgroup.MsgTxn {
			return nil, 0
		}
		payload = payload[1:]
	}
	//lint:statcount-ok final delivery counts an unreadable header (finalize, certifyFinal); a discarded message never gets there
	tid, err := dbsm.PeekTID(payload)
	if err != nil {
		return nil, 0
	}
	return payload, tid
}

// stageSkip is the empty stage: an optimistic upcall with nothing to do for
// its message still takes its turn on the CPU, so the sequence of simulated
// events does not depend on what the message was.
func stageSkip(*Replica, *db.Txn, []byte, uint64) {}

// onOptimistic receives one tentatively-delivered message. The upcall runs
// inside the stack's receive job, where accrued CPU cost would delay the
// sequencer's ordering announcement — so the certification work is handed
// off to its own job and only the header peek and the scheduling happen here.
func (r *Replica) onOptimistic(o gcs.OptDelivery) {
	if r.stopped {
		return
	}
	if cert, tid := r.peekSpec(o.Payload); cert != nil {
		r.schedule(stageTentative, nil, cert, tid)
		return
	}
	r.schedule(stageSkip, nil, nil, 0)
}

// stageTentative is stage one of the optimistic pipeline: decode, certify
// speculatively, and act on the verdict while the sequencer's round is still
// in flight. cert stays valid until the message's final delivery or discard,
// and either of those leaves done[tid] behind when it beats this job.
func stageTentative(r *Replica, _ *db.Txn, cert []byte, tid uint64) {
	if r.done[tid] {
		// Finalized (sequencer-side delivery) or discarded at a view change
		// before this job ran: the message is settled, nothing to speculate
		// on — and cert is no longer ours to decode.
		delete(r.done, tid)
		return
	}
	st := r.takeTent()
	if err := st.tc.UnmarshalFrom(cert); err != nil {
		r.recycleTent(st)
		r.stats.CertDrops++
		r.done[tid] = true // counted here: final delivery skips it
		return
	}
	r.chargeUnmarshal(len(cert))
	st.out = r.spec.Tentative(&st.tc)
	r.tent[st.tc.TID] = st
	r.speculate(st)
}

// takeTent returns a tentative state whose record the next decode overwrites.
func (r *Replica) takeTent() *tentTxn {
	st := r.freeTent.Get()
	if st == nil {
		st = new(tentTxn)
	}
	return st
}

// recycleTent takes back the state of a message that has left r.tent — and
// with it the speculative queue, which Final and Invalidate empty of the
// record before they return. The storage of both sets stays for the next
// decode: the certifier's history and the server's install copy what they
// keep.
func (r *Replica) recycleTent(st *tentTxn) {
	st.preApplied = false
	r.freeTent.Put(st)
}

// onOptDiscard learns that a tentatively-delivered message was discarded at
// a view change and will never reach final delivery: its speculative state
// must be cancelled or it would wedge the queue head and force a rollback
// on every subsequent final delivery. When the tentative job has not run yet
// there is no state to cancel; the mark left here makes it skip the message.
func (r *Replica) onOptDiscard(o gcs.OptDelivery) {
	if r.stopped {
		return
	}
	if cert, tid := r.peekSpec(o.Payload); cert != nil {
		if r.tent[tid] != nil {
			r.schedule(stageDiscard, nil, nil, tid)
			return
		}
		r.done[tid] = true
	}
	r.schedule(stageSkip, nil, nil, 0)
}

// stageDiscard cancels the speculation on one never-to-finalize message.
func stageDiscard(r *Replica, _ *db.Txn, _ []byte, tid uint64) {
	st := r.tent[tid]
	if st == nil {
		return
	}
	delete(r.tent, tid)
	r.respeculate(r.spec.Invalidate(tid))
	r.recycleTent(st)
}

// speculate acts on a tentative verdict: local transactions learn their
// certification decision one ordering round early, remote commits pre-write
// their rows to scratch storage so the final install is a single
// commit-record sector.
func (r *Replica) speculate(st *tentTxn) {
	if st.tc.Site == r.site {
		r.server.NoteCertDecision(st.tc.TID)
		return
	}
	if !st.out.Commit || st.preApplied {
		return
	}
	if apply := r.localWrites(&st.tc); apply != nil {
		st.preApplied = true
		r.stats.PreApplied++
		r.server.PreApplyRemote(apply.WriteSet)
	}
}

// onDeliver processes one totally-ordered certification message: certify,
// then install or resolve. This runs identically — and decides identically —
// at every replica.
func (r *Replica) onDeliver(d gcs.Delivery) {
	if r.stopped {
		return
	}
	if r.recovering {
		// The snapshot is still in transit: hold a copy of the delivery for
		// the delta catch-up — the stack reuses the payload bytes as soon as
		// this upcall returns.
		r.recoverBuf = append(r.recoverBuf, bufferedDelivery{global: d.Global, payload: bytes.Clone(d.Payload)})
		return
	}
	if d.Global > r.lastGlobal {
		r.lastGlobal = d.Global
	}
	payload := d.Payload
	if r.x != nil {
		// Group mode: dispatch on the stream tag. Prepares and decisions
		// are cross-group events; plain transactions continue below.
		if len(payload) == 0 {
			r.stats.CertDrops++
			return
		}
		switch payload[0] {
		case xgroup.MsgTxn:
			payload = payload[1:]
		case xgroup.MsgPrepare, xgroup.MsgDecide:
			// onStream counts delivered only after a successful parse,
			// mirroring the classic path below.
			r.x.onStream(payload)
			return
		default:
			r.stats.CertDrops++
			return
		}
	}
	if r.spec != nil {
		r.finalize(payload)
		return
	}
	r.certifyFinal(payload)
}

// certifyFinal decodes, certifies and resolves one final delivery with no
// tentative state behind it: every conservative delivery, and the recovery
// catch-up under either variant (speculation is suppressed while recovering,
// so the speculative queue is empty and Final certifies directly).
func (r *Replica) certifyFinal(payload []byte) {
	tc := &r.finalRec
	if err := tc.UnmarshalFrom(payload); err != nil {
		r.stats.CertDrops++
		return
	}
	r.stats.Delivered++
	r.chargeUnmarshal(len(payload))
	var out dbsm.Outcome
	if r.spec != nil {
		out, _ = r.spec.Final(tc)
	} else {
		out = r.cert.Certify(tc)
	}
	r.settle(tc.TID, out, tc, false)
}

// finalize is stage two of the optimistic pipeline: confirm the queued
// tentative verdict when the final order matches (the fast path decodes
// nothing and certifies nothing), or roll the speculation back and
// re-certify when it diverges. payload is the certification message bytes
// (group-mode stream tag already stripped). A malformed payload is counted
// once: here, unless the tentative stage got to the body first.
func (r *Replica) finalize(payload []byte) {
	tid, err := dbsm.PeekTID(payload)
	if err != nil {
		r.stats.CertDrops++
		return
	}
	st := r.tent[tid]
	tc := &r.finalRec
	if st != nil {
		tc = &st.tc
	} else {
		if r.done[tid] {
			// The tentative stage found the body malformed and counted it.
			delete(r.done, tid)
			return
		}
		// The tentative stage has not seen this payload — the final order
		// beat its job. Decode now and mark the message settled, so the
		// late job skips it without reading bytes the stack has reused.
		r.done[tid] = true
		if err = tc.UnmarshalFrom(payload); err != nil {
			r.stats.CertDrops++
			return
		}
		r.chargeUnmarshal(len(payload))
	}
	r.stats.Delivered++
	out, rolled := r.spec.Final(tc)
	delete(r.tent, tid)
	r.respeculate(rolled)
	if st != nil && st.preApplied && !out.Commit {
		r.stats.PreApplyWasted++
	}
	r.settle(tid, out, tc, st != nil && st.preApplied)
	if st != nil {
		r.recycleTent(st)
	}
}

// respeculate re-runs the tentative stage for a rolled-back suffix, in its
// original tentative order. Scratch pre-writes survive — the written data
// does not depend on the verdict — so only the certification decisions are
// recomputed.
func (r *Replica) respeculate(rolled []*dbsm.TxnCert) {
	for _, rtc := range rolled {
		st := r.tent[rtc.TID]
		if st == nil {
			continue
		}
		st.out = r.spec.Tentative(rtc)
		r.stats.Recertified++
		r.speculate(st)
	}
}

// settle carries transaction tid's final outcome to the server. A commit is
// appended to the commit log; a local transaction learns its fate and drains
// the backlog; a committed remote write-set is installed. ws holds the
// rows the outcome writes — the whole certification message, or this group's
// part of a cross-group transaction (nil when the group has none) — narrowed
// here to the rows this site stores.
func (r *Replica) settle(tid uint64, out dbsm.Outcome, ws *dbsm.TxnCert, preApplied bool) {
	if out.Commit {
		r.commitLog.Append(out.Seq, tid)
	}
	if dbsm.TIDSite(tid) == r.site {
		if r.server.ResolveLocal(tid, out.Commit, out.Seq) {
			// One in-flight termination resolved. Orphans (below) never
			// counted an increment — their increment belonged to a previous
			// incarnation's replica — so only this path decrements.
			r.backlog = max(r.backlog-1, 0)
			return
		}
		// Orphaned local transaction: the incarnation that submitted it
		// crashed, so no pending-certification entry exists and nobody
		// will write its data back locally. If the group committed it,
		// install it like a remote write-set or this site's storage
		// silently diverges from the replicas that applied it.
		preApplied = false
	}
	if !out.Commit {
		return
	}
	if ws != nil {
		ws = r.localWrites(ws)
	}
	switch {
	case ws == nil || len(ws.WriteSet) == 0:
		// Nothing from this transaction is stored here — skip the install
		// entirely (no locks, no disk).
		r.server.NoteApplied(out.Seq)
	case preApplied:
		r.server.ApplyRemotePrepared(ws, out.Seq)
	default:
		r.server.ApplyRemote(ws, out.Seq)
	}
}

// localWrites narrows a write-set to the locally-stored rows under partial
// replication. It returns tc itself when every row is stored here (always,
// under full replication), nil when none are, and r.narrow when only some
// are: a copy of tc with the stored rows, valid until the next call.
func (r *Replica) localWrites(tc *dbsm.TxnCert) *dbsm.TxnCert {
	stored := r.opts.Replicates
	if stored == nil {
		return tc
	}
	skip := 0
	for skip < len(tc.WriteSet) && stored(tc.WriteSet[skip]) {
		skip++
	}
	if skip == len(tc.WriteSet) {
		return tc
	}
	local := append(r.narrow.WriteSet[:0], tc.WriteSet[:skip]...)
	for _, id := range tc.WriteSet[skip:] {
		if stored(id) {
			local = append(local, id)
		}
	}
	r.narrow = *tc
	r.narrow.WriteSet = local
	if len(local) == 0 {
		return nil
	}
	return &r.narrow
}
