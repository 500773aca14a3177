package replica

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/dbsm"
	"repro/internal/gcs"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xgroup"
)

// xmgr runs the cross-group commit round of partial replication (the
// ISSUE 8 tentpole). Each replication group orders only its own group's
// transactions; a multi-group transaction is decided by a vote/decide round
// whose every state change rides the involved groups' existing total-order
// streams, so group state stays a pure function of each group's delivered
// stream and replay is byte-identical:
//
//  1. The coordinator — the transaction's home site — splits the
//     certification message into per-group parts and multicasts the full
//     prepare on its home group's ordered stream.
//  2. At prepare delivery every home member installs a reservation over the
//     home part and computes the home vote (snapshot staleness via
//     Certifier.CheckOnly plus reservation conflicts); the coordinator then
//     relays the restricted prepare (one group's part) to the members of
//     each remote involved group. Relaying only after home delivery means a
//     coordinator that dies earlier leaves no remote state behind.
//  3. A remote group's sequencer re-multicasts the relayed prepare into its
//     own stream; at delivery every member reserves its part and votes
//     (reservation conflicts only — remote parts execute at delivery, so
//     there is no snapshot to stale-check). All members relay their vote to
//     the coordinator; votes are deterministic per group, so first-per-group
//     wins and duplicates agree.
//  4. The decision (AND of one vote per involved group) is multicast on the
//     home stream and relayed to remote groups, whose sequencer injects it
//     into their streams. At decide delivery the reservation resolves:
//     commit force-installs the part (Certifier.ForceCommit — the verdict
//     was fixed at vote time, while the reservation blocked conflicting
//     commits) and abort releases it. Remote members ack the coordinator.
//
// Relay receipts never mutate certification state — they only trigger sends
// (re-multicast injection, stored-vote replies) — so group state depends
// only on stream positions, never on datagram arrival order.
//
// Fault handling: the coordinator retransmits relays on a timer until every
// involved group voted and acked. If the coordinator's site dies, the home
// group's view change promotes the lowest surviving home member — which
// holds the full prepare from the home stream — to coordinator; it re-relays
// with itself as the reply-to, participants answer stored votes (never
// recomputed) or final decisions, and the AND of the same votes reproduces
// the same decision. Reservations guarantee that between vote and decide no
// conflicting transaction commits in any involved group, which is what makes
// the per-group certified orders composable into one serializable history
// (checked off-line by internal/check's cross-group pass).
type xmgr struct {
	r        *Replica
	group    int // own 1-based group
	groups   int
	perGroup int

	// pending retains every cross-group transaction this site ever saw, even
	// after resolution — deliberately. Late retransmitted probes must be
	// answered with the fixed vote or decision, and pruning a member's entry
	// would let a delayed relayed prepare be re-injected into the stream and
	// re-voted after decide (prepareDelivered treats an unknown TID as new).
	// That lookup is its only job: no per-transaction path iterates it (only
	// a view change does). The kept payload (enc) goes back at decide; the
	// residue is a record and its part's sets in items per multi-group
	// transaction, so memory — not CPU — grows with run length until an
	// epoch-based retirement handshake prunes it. The table itself outlives
	// the run: release empties it onto a shelf and the next model's xmgr
	// starts on it, its buckets already grown.
	pending map[uint64]*xtxn
	// txns is the storage pending's records are carved from, in order: blocks
	// that never move, since a record's address is its identity in pending
	// and active. used counts the records carved. The blocks outlive the run
	// like the table: release zeroes the records and shelves them.
	txns []*[xtxnBlock]xtxn
	used int
	// items holds the sets of every part this member reserved: the records'
	// parts and XRecords read them for the rest of the run (results reads
	// XRecords before release), so nothing is freed before release, which
	// resets the arena and shelves its blocks.
	items dbsm.Arena
	// encs lends the buffers home members keep an undecided prepare's payload
	// in (xtxn.enc): one per prepare delivered at home, back at its decide.
	encs sim.FreeList[[]byte]
	// active is the reservation table: the entries holding a commit-voted,
	// undecided part, in the order their prepares were delivered. It is what
	// veto and the vote's conflict test scan — the transactions concurrent
	// with the one being certified, almost always none. It changes only in
	// prepareDelivered and decideDelivered; race builds recompute it from
	// pending after each (checkActive).
	active []*xtxn
	// stash holds decisions that arrived by relay before this member
	// delivered the prepare on its own stream. It only gates re-injection
	// (a send), never certification state: the decision takes effect at its
	// stream delivery like everywhere else. A fixed decision implies every
	// involved group delivered the prepare on its stream, so the entry is
	// cleared when this member reaches that delivery; entries outlive the
	// run only on members that stop first.
	stash map[uint64]bool

	// frags accumulates fragments of oversized relayed prepares (one
	// assembly per TID) until the whole prepare is restored; asm is the
	// reassembly scratch. An incomplete assembly lives until retransmitted
	// frames complete it or the prepare is delivered on this group's stream,
	// whichever comes first.
	frags map[uint64]*fragAsm
	asm   []byte

	// buf is the control-message scratch (Relay and Multicast both copy the
	// payload out before returning).
	buf []byte
	// dec is what every prepare decodes into: one delivered on the stream,
	// one relayed, and a kept payload re-decoded for the relays. Each reader
	// copies what it keeps before the next decode overwrites it.
	dec xgroup.Prepare
	// parts and store are the split terminate encodes at once: nothing keeps
	// them past AppendPrepare.
	parts []xgroup.Part
	store dbsm.ItemSet

	// records is every resolution this member delivered, in stream order
	// (Replica.XRecords); their sets are the reserved parts' copies in items.
	records []trace.XRecord
}

// xStore is the storage a finished xmgr leaves for the next one: its records'
// array, its transaction table and the records' blocks, all emptied, its
// arena's blocks and its payload buffers.
type xStore struct {
	records []trace.XRecord
	pending map[uint64]*xtxn
	txns    []*[xtxnBlock]xtxn
	items   dbsm.Arena
	encs    [][]byte
}

// xStores holds the storage of finished models' xmgrs (release).
var xStores sim.Shelf[xStore]

// release empties the records, the transaction table and its records onto
// xStores, so none pins this model's transactions, for the next newXmgr. A
// record keeps only its retransmit tick, which reads the xmgr that takes it
// next. Payloads still kept for undecided rounds are left to the collector.
func (x *xmgr) release() {
	clear(x.records)
	clear(x.pending)
	for i := range x.used {
		e := &x.txns[i/xtxnBlock][i%xtxnBlock]
		*e = xtxn{retry: e.retry}
	}
	x.items.Reset()
	xStores.Put(xStore{records: x.records[:0], pending: x.pending, txns: x.txns, items: x.items, encs: x.encs.Handover()})
	x.records, x.pending, x.txns, x.used = nil, nil, nil, 0
}

// fragAsm is one oversized prepare's reassembly state: fragments land in
// index order slots until all are present.
type fragAsm struct {
	total int
	got   int
	parts [][]byte
}

// xtxnBlock is the number of records in one block of an xmgr's txns.
const xtxnBlock = 256

// xtxn is one multi-group transaction's state at this site.
type xtxn struct {
	x       *xmgr // the manager that carved the record; retry reads it
	tid     uint64
	home    int
	coordID runtimeapi.NodeID
	// enc is the prepare's payload as delivered on the home stream, lead byte
	// included, kept at home members only (the handover inheritance: any of
	// them may have to relay it) in a buffer lent by x.encs until decide.
	enc []byte
	// part is this group's part, &cert with its sets in x.items (nil when the
	// group has none, and from decide on; the record keeps reading cert).
	part *dbsm.TxnCert
	cert dbsm.TxnCert

	voted bool // prepare delivered on this group's stream
	vote  bool // this group's stored vote (never recomputed)

	decided bool // decision delivered on this group's stream
	commit  bool
	seq     uint64 // group-local install sequence when committed

	// Coordinator-side state (initiating site, or a home member after
	// handover).
	coord        bool
	involved     uint32 // bitmask of involved groups (home members only)
	votesMask    uint32
	acksMask     uint32
	allCommit    bool
	coordDecided bool // decision fixed (all votes in, or adopted)
	homeDecided  bool
	doneC        bool
	retry        func() // the retransmit tick, bound once for the record's life
}

// newTxn carves a zeroed record for tid, homed at group home, out of txns.
func (x *xmgr) newTxn(tid uint64, home int) *xtxn {
	i := x.used / xtxnBlock
	if i == len(x.txns) {
		x.txns = append(x.txns, new([xtxnBlock]xtxn))
	}
	e := &x.txns[i][x.used%xtxnBlock]
	x.used++
	e.x, e.tid, e.home = x, tid, home
	return e
}

func xbit(g int) uint32 { return 1 << uint(g) }

// newXmgr builds a replica's cross-group manager on the storage a finished
// one left (release), when there is some.
func newXmgr(r *Replica) *xmgr {
	st, ok := xStores.Get()
	if !ok {
		st.pending = make(map[uint64]*xtxn)
	}
	x := &xmgr{
		r:        r,
		group:    xgroup.GroupOfSite(int(r.site), r.opts.SitesPerGroup),
		groups:   r.opts.GroupCount,
		perGroup: r.opts.SitesPerGroup,
		pending:  st.pending,
		txns:     st.txns,
		items:    st.items,
		stash:    make(map[uint64]bool),
		frags:    make(map[uint64]*fragAsm),
		records:  st.records,
	}
	x.encs.Adopt(st.encs)
	return x
}

func (x *xmgr) self() runtimeapi.NodeID { return x.r.rt.Self() }

// sequencing reports whether this member is its group's current sequencer
// (lowest view member): the one that injects relayed prepares and decisions
// into the group's ordered stream.
func (x *xmgr) sequencing() bool {
	v := x.r.stack.View()
	return len(v.Members) > 0 && v.Members[0] == x.self()
}

// veto is the Certifier.Veto predicate: abort any transaction conflicting
// with an active reservation. Reservations change only at stream deliveries,
// so every group member vetoes identically at the same position. The work
// charge is fixed before the scan — reservation count times set size, a full
// count with no short-circuit — so the simulated CPU time it advances does
// not depend on where the scan stops.
func (x *xmgr) veto(t *dbsm.TxnCert) bool {
	if len(x.active) == 0 {
		return false
	}
	if x.r.cert.Charge != nil {
		x.r.cert.Charge(len(x.active) * (len(t.ReadSet) + len(t.WriteSet)))
	}
	if !x.conflicts(t) {
		return false
	}
	x.r.stats.XVetoes++
	return true
}

// conflicts reports whether a certification message or a part conflicts with
// an active reservation (the veto, and the reservation half of the vote: a
// part being voted on is not in the table yet).
func (x *xmgr) conflicts(p *dbsm.TxnCert) bool {
	for _, e := range x.active {
		o := e.part
		if p.WriteSet.Intersects(o.WriteSet) || p.WriteSet.Intersects(o.ReadSet) ||
			p.ReadSet.Intersects(o.WriteSet) {
			return true
		}
	}
	return false
}

// homeOnly reports whether every tuple of a set is this group's or catalog
// data (0), replicated in every group.
func (x *xmgr) homeOnly(s dbsm.ItemSet) bool {
	for _, id := range s {
		if g := x.r.opts.GroupOf(id); g != 0 && g != x.group {
			return false
		}
	}
	return true
}

// terminate is the group-mode termination path: route single-group
// transactions onto the group's ordered stream, open the cross-group round
// for multi-group ones.
func (x *xmgr) terminate(tc *dbsm.TxnCert) {
	r := x.r
	if x.homeOnly(tc.ReadSet) && x.homeOnly(tc.WriteSet) {
		// The classic path, tagged; nothing is split or copied.
		r.submit(tc.AppendTo(append(r.scratch[:0], xgroup.MsgTxn)))
		return
	}
	x.parts, x.store = xgroup.Split(x.parts, x.store, tc, r.opts.GroupOf, x.group)
	prep := xgroup.Prepare{
		TID:         tc.TID,
		Coordinator: x.self(),
		HomeGroup:   x.group,
		Parts:       x.parts,
	}
	r.submit(xgroup.AppendPrepare(r.scratch[:0], xgroup.MsgPrepare, &prep, 0))
	r.stats.MultiGroupTxns++
	e := x.newTxn(tc.TID, x.group)
	e.coordID, e.coord, e.allCommit = x.self(), true, true
	for i := range x.parts {
		e.involved |= xbit(x.parts[i].Group)
	}
	x.pending[tc.TID] = e
	// Remote relays wait for the home prepare delivery (home-first rule:
	// a coordinator that dies before then leaves no remote state). The
	// timer drives retransmission from there on.
	x.armTimer(e)
}

// onStream handles a prepare or decide delivered on this group's ordered
// stream — the only places cross-group state changes. Under the optimistic
// variant the whole tentative queue is rolled back first: queued verdicts
// were computed against the pre-event reservation table, and the Final
// head-match fast path must never serve them after it changes.
func (x *xmgr) onStream(payload []byte) {
	r := x.r
	var rolled []*dbsm.TxnCert
	if r.spec != nil {
		rolled = r.spec.InvalidateAll()
	}
	switch payload[0] {
	case xgroup.MsgPrepare:
		if err := xgroup.ParsePrepareInto(&x.dec, payload[1:]); err != nil {
			r.stats.CertDrops++
		} else {
			r.stats.Delivered++
			r.chargeUnmarshal(len(payload))
			x.prepareDelivered(&x.dec, payload)
		}
	case xgroup.MsgDecide:
		tid, commit, err := xgroup.ParseDecision(payload[1:])
		if err != nil {
			r.stats.CertDrops++
		} else {
			r.stats.Delivered++
			x.decideDelivered(tid, commit)
		}
	}
	if sim.RaceBuild { // active must be the set a full scan of pending finds
		x.checkActive()
	}
	r.respeculate(rolled)
}

// checkActive panics unless active holds exactly the entries of pending with
// a reservation — commit-voted, undecided, with a part — each once.
func (x *xmgr) checkActive() {
	n := 0
	for tid, e := range x.pending {
		held := e.voted && e.vote && !e.decided && e.part != nil
		if held != slices.Contains(x.active, e) {
			panic(fmt.Sprintf("replica: transaction %#x: reservation held %t, in the active table %t", tid, held, !held))
		}
		if held {
			n++
		}
	}
	if n != len(x.active) {
		panic(fmt.Sprintf("replica: %d reservations, %d active entries", n, len(x.active)))
	}
}

// prepareDelivered installs the reservation and computes this group's vote.
// Runs at the same stream position with identical certifier and reservation
// state at every group member, so every member stores the same vote. p is
// the decoded prepare and enc its payload, lead byte included; neither is
// kept: the part goes into the arena and, at home members, enc into a
// buffer of their own.
func (x *xmgr) prepareDelivered(p *xgroup.Prepare, enc []byte) {
	r := x.r
	e := x.pending[p.TID]
	if e != nil && e.voted {
		return // duplicate injection; the first delivery settled everything
	}
	if e == nil {
		e = x.newTxn(p.TID, p.HomeGroup)
		x.pending[p.TID] = e
	}
	if x.group == e.home {
		e.enc = append(x.encs.Get(), enc...)
	}
	e.coordID = p.Coordinator
	for i := range p.Parts {
		e.involved |= xbit(p.Parts[i].Group)
	}
	if pt := p.PartFor(x.group); pt != nil {
		e.cert = pt.Cert
		e.cert.ReadSet, e.cert.WriteSet = x.keep(pt.Cert.ReadSet), x.keep(pt.Cert.WriteSet)
		e.part = &e.cert
	}
	vote := true
	if e.part != nil {
		vote = !x.conflicts(e.part)
		if vote && x.group == e.home {
			// Home reads executed against the home snapshot: stale-check
			// them. Remote parts execute at delivery — nothing to check.
			vote = r.cert.CheckOnly(e.part)
		}
	}
	e.voted, e.vote = true, vote
	if vote && e.part != nil {
		x.active = append(x.active, e)
	}
	// Whatever fragments of a relayed copy got here first are moot now, and
	// once the group has voted nobody retransmits the rest.
	delete(x.frags, e.tid)
	if e.coord {
		x.recordVote(e, x.group, vote)
		if !e.coordDecided {
			// Re-decodes into x.dec, which p may be: p is not read below.
			x.sendPrepRelays(e)
		}
	} else {
		x.buf = xgroup.AppendVote(x.buf[:0], xgroup.MsgVote, e.tid, x.group, vote)
		r.stack.Relay(e.coordID, x.buf)
	}
	if commit, ok := x.stash[e.tid]; ok {
		// The decision already reached this member by relay; now that the
		// prepare is on the stream the sequencer may inject it.
		delete(x.stash, e.tid)
		if x.sequencing() {
			x.buf = xgroup.AppendDecision(x.buf[:0], xgroup.MsgDecide, e.tid, commit)
			r.stack.Multicast(x.buf)
		}
	}
}

// keep copies a set of the part this member reserves into the arena.
func (x *xmgr) keep(s dbsm.ItemSet) dbsm.ItemSet {
	kept, _ := x.items.Copy(s)
	return kept
}

// decideDelivered resolves the reservation at the decision's stream
// position: force-install on commit, release on abort. Prepares always
// precede their decision on every stream (home: sender FIFO; remote: the
// sequencer only injects a decision after delivering the prepare), so a
// missing entry is a protocol bug, counted as a drop rather than ignored.
func (x *xmgr) decideDelivered(tid uint64, commit bool) {
	r := x.r
	e := x.pending[tid]
	if e == nil || !e.voted {
		r.stats.CertDrops++
		return
	}
	if e.decided {
		return // duplicate injection
	}
	e.decided = true
	e.commit = commit
	out := dbsm.Outcome{Commit: commit}
	if commit {
		r.stats.XCommitted++
		if e.part != nil {
			out = r.cert.ForceCommit(e.part)
		} else {
			empty := dbsm.TxnCert{TID: tid}
			out = r.cert.ForceCommit(&empty)
		}
		e.seq = out.Seq
	} else {
		r.stats.XAborted++
	}
	rec := trace.XRecord{
		TID:       tid,
		Group:     x.group,
		HomeGroup: e.home,
		Commit:    commit,
		Seq:       e.seq,
		Involved:  e.involved,
	}
	if e.part != nil {
		rec.ReadSet, rec.WriteSet = e.part.ReadSet, e.part.WriteSet
	}
	x.records = append(x.records, rec)
	r.settle(tid, out, e.part, false)
	if e.home != x.group {
		x.buf = xgroup.AppendAck(x.buf[:0], xgroup.MsgAck, tid, x.group)
		r.stack.Relay(e.coordID, x.buf)
	} else if e.coord {
		e.homeDecided = true
		x.checkComplete(e)
	}
	// Reservation resolved: drop it, and give the kept payload back. The
	// entry itself stays so duplicate relays get decision replies and
	// re-acks.
	if i := slices.Index(x.active, e); i >= 0 {
		x.active = slices.Delete(x.active, i, i+1)
	}
	if e.enc != nil {
		x.encs.Put(e.enc[:0])
		e.enc = nil
	}
	e.part = nil
}

// onRelay handles point-to-point cross-group datagrams. Strictly send-only:
// nothing here mutates certification or reservation state, so datagram
// arrival order cannot perturb the deterministic stream state.
func (x *xmgr) onRelay(src runtimeapi.NodeID, payload []byte) {
	r := x.r
	if r.stopped || len(payload) == 0 {
		return
	}
	switch payload[0] {
	case xgroup.MsgPrepare:
		if err := xgroup.ParsePrepareInto(&x.dec, payload[1:]); err != nil {
			r.stats.CertDrops++
			return
		}
		r.chargeUnmarshal(len(payload))
		e := x.pending[x.dec.TID]
		if e == nil {
			// Not yet on this group's stream: the sequencer injects it.
			// Multicast copies the payload before returning, so handing it
			// the relay's bytes (tag included) is safe.
			if x.sequencing() {
				r.stack.Multicast(payload)
			}
			return
		}
		x.answerPrepProbe(src, e)
	case xgroup.MsgPrepFrag:
		tid, total, idx, chunk, err := xgroup.ParsePrepFrag(payload[1:])
		if err != nil {
			r.stats.CertDrops++
			return
		}
		if e := x.pending[tid]; e != nil {
			// The prepare already reached this member whole (an earlier
			// transmission, or the stream): retransmitted fragments are
			// probes, answered like an intact prepare probe.
			delete(x.frags, tid)
			x.answerPrepProbe(src, e)
			return
		}
		a := x.frags[tid]
		if a == nil || a.total != total {
			a = &fragAsm{total: total, parts: make([][]byte, total)}
			x.frags[tid] = a
		}
		if a.parts[idx] == nil {
			// The relay's bytes are lent for this upcall only (OnRelay):
			// the assembly keeps a copy.
			a.parts[idx] = slices.Clone(chunk)
			a.got++
		}
		if a.got < a.total {
			return
		}
		delete(x.frags, tid)
		// All fragments present: restore the MsgPrepare payload and handle
		// it exactly like an intact relayed prepare.
		whole := append(x.asm[:0], xgroup.MsgPrepare)
		for _, part := range a.parts {
			whole = append(whole, part...)
		}
		x.asm = whole
		x.onRelay(src, whole)
	case xgroup.MsgVote:
		tid, g, commit, err := xgroup.ParseVote(payload[1:])
		if err != nil {
			r.stats.CertDrops++
			return
		}
		e := x.pending[tid]
		if e == nil || !e.coord || e.coordDecided {
			return
		}
		x.recordVote(e, g, commit)
	case xgroup.MsgDecide:
		tid, commit, err := xgroup.ParseDecision(payload[1:])
		if err != nil {
			r.stats.CertDrops++
			return
		}
		e := x.pending[tid]
		if e == nil {
			// Decision outran the prepare at this member; remember it so
			// the sequencer can inject it once the prepare lands.
			x.stash[tid] = commit
			return
		}
		if e.coord && !e.coordDecided {
			// Handover: a participant answered the probe with the decision
			// the dead coordinator already fixed. Adopt it — it is the AND
			// of the same stored votes we were re-collecting.
			x.adoptDecision(e, commit)
			return
		}
		if !e.decided {
			if x.sequencing() {
				x.buf = xgroup.AppendDecision(x.buf[:0], xgroup.MsgDecide, tid, commit)
				r.stack.Multicast(x.buf)
			}
		} else if e.home != x.group {
			x.buf = xgroup.AppendAck(x.buf[:0], xgroup.MsgAck, tid, x.group)
			r.stack.Relay(src, x.buf)
		}
	case xgroup.MsgAck:
		tid, g, err := xgroup.ParseAck(payload[1:])
		if err != nil {
			r.stats.CertDrops++
			return
		}
		e := x.pending[tid]
		if e == nil || !e.coord {
			return
		}
		e.acksMask |= xbit(g)
		x.checkComplete(e)
	default:
		r.stats.CertDrops++
	}
}

// answerPrepProbe answers a retransmitted prepare (whole or fragmented) for
// a transaction this member already holds: the fixed decision once decided
// (plus a re-ack from remote groups), the stored vote — never recomputed —
// once voted. Strictly send-only, like everything on the relay path.
func (x *xmgr) answerPrepProbe(src runtimeapi.NodeID, e *xtxn) {
	r := x.r
	if e.decided {
		x.buf = xgroup.AppendDecision(x.buf[:0], xgroup.MsgDecide, e.tid, e.commit)
		r.stack.Relay(src, x.buf)
		if e.home != x.group {
			x.buf = xgroup.AppendAck(x.buf[:0], xgroup.MsgAck, e.tid, x.group)
			r.stack.Relay(src, x.buf)
		}
		return
	}
	if e.voted {
		x.buf = xgroup.AppendVote(x.buf[:0], xgroup.MsgVote, e.tid, x.group, e.vote)
		r.stack.Relay(src, x.buf)
	}
}

// recordVote accumulates one group's vote at the coordinator. First vote per
// group wins; duplicates are deterministic copies of the same stored value.
func (x *xmgr) recordVote(e *xtxn, g int, commit bool) {
	if e.votesMask&xbit(g) != 0 {
		return
	}
	e.votesMask |= xbit(g)
	e.allCommit = e.allCommit && commit
	if e.votesMask == e.involved {
		x.adoptDecision(e, e.allCommit)
	}
}

// adoptDecision fixes the decision at the coordinator and broadcasts it:
// multicast on the home stream, relayed to remote groups for injection.
func (x *xmgr) adoptDecision(e *xtxn, commit bool) {
	e.coordDecided = true
	e.allCommit = commit
	x.buf = xgroup.AppendDecision(x.buf[:0], xgroup.MsgDecide, e.tid, commit)
	x.r.stack.Multicast(x.buf)
	x.relayDecides(e)
}

// sendPrepRelays relays the prepare, restricted to one group's part, to
// every member of each remote involved group that has not voted yet. It
// re-decodes the payload the home member kept (nothing once decided). The
// reply-to coordinator is rewritten to self so votes come back to the
// current coordinator.
func (x *xmgr) sendPrepRelays(e *xtxn) {
	if len(e.enc) == 0 || xgroup.ParsePrepareInto(&x.dec, e.enc[1:]) != nil {
		return
	}
	p := &x.dec
	mtu := x.r.rt.MTU() - 1 // the gcs relay wire prepends one kind byte
	for i := range p.Parts {
		g := p.Parts[i].Group
		if g == e.home || e.votesMask&xbit(g) != 0 {
			continue
		}
		restricted := xgroup.Prepare{TID: p.TID, Coordinator: x.self(), HomeGroup: p.HomeGroup, Parts: p.Parts[i : i+1]}
		x.buf = xgroup.AppendPrepare(x.buf[:0], xgroup.MsgPrepare, &restricted, mtu)
		if frames := xgroup.FragmentPrepare(x.buf, restricted.TID, mtu); frames != nil {
			// Padding trimming alone could not fit the datagram under the
			// MTU — the item sets themselves overflow it. Ship fragments;
			// receivers reassemble before treating it as a prepare.
			x.r.stats.XPrepFrags += int64(len(frames))
			for _, f := range frames {
				x.relayToGroup(g, f)
			}
			continue
		}
		x.relayToGroup(g, x.buf)
	}
}

// relayDecides relays the decision to every member of each remote involved
// group that has not acked yet.
func (x *xmgr) relayDecides(e *xtxn) {
	x.buf = xgroup.AppendDecision(x.buf[:0], xgroup.MsgDecide, e.tid, e.allCommit)
	for g := 1; g <= x.groups; g++ {
		if g == e.home || e.involved&xbit(g) == 0 || e.acksMask&xbit(g) != 0 {
			continue
		}
		x.relayToGroup(g, x.buf)
	}
}

// relayToGroup unicasts a control payload to every site of a group. Relay
// copies the payload per send, so the shared scratch is safe to reuse.
func (x *xmgr) relayToGroup(g int, payload []byte) {
	lo, hi := xgroup.GroupSites(g, x.perGroup)
	for m := lo; m <= hi; m++ {
		x.r.stack.Relay(runtimeapi.NodeID(m), payload)
	}
}

// checkComplete retires a coordinator entry once the home stream delivered
// the decision and every remote involved group acked it.
func (x *xmgr) checkComplete(e *xtxn) {
	remote := e.involved &^ xbit(e.home)
	if e.homeDecided && e.acksMask&remote == remote {
		e.doneC = true
	}
}

// xRetryPeriod is the cross-group coordinator's retransmit period.
const xRetryPeriod = 100 * sim.Millisecond

// armTimer schedules the coordinator's retransmit tick.
func (x *xmgr) armTimer(e *xtxn) {
	if e.retry == nil {
		e.retry = func() { e.x.tick(e) }
	}
	x.r.rt.StartJob(xRetryPeriod, e.retry)
}

// tick retransmits whatever the round is still missing: prepares to groups
// without votes, decisions to groups without acks.
func (x *xmgr) tick(e *xtxn) {
	r := x.r
	if r.stopped || e.doneC || !e.coord {
		return
	}
	r.stats.XRetries++
	if !e.coordDecided {
		if e.voted {
			x.sendPrepRelays(e)
		}
		// Before the home prepare delivers there is nothing to retransmit:
		// the reliable stream is still carrying it.
	} else {
		x.relayDecides(e)
	}
	x.armTimer(e)
}

// onViewChange promotes the lowest surviving home member to coordinator for
// every round whose coordinator the new view excludes. Home members hold the
// full prepare from the home stream, so the successor can re-relay it; the
// participants' stored votes reproduce the same decision.
func (x *xmgr) onViewChange(v gcs.View) {
	r := x.r
	if r.stopped || len(v.Members) == 0 || v.Members[0] != x.self() {
		return
	}
	// Deterministic takeover order: collect and sort before acting — map
	// iteration order must not shape the send sequence.
	var tids []uint64
	for tid, e := range x.pending {
		if e.coord || e.doneC || !e.voted || e.home != x.group {
			continue
		}
		alive := false
		for _, m := range v.Members {
			if m == e.coordID {
				alive = true
				break
			}
		}
		if alive {
			continue
		}
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		e := x.pending[tid]
		r.stats.XHandovers++
		e.coord = true
		e.coordID = x.self()
		if e.decided {
			// The decision already reached the home stream: only remote
			// acks can be missing.
			e.coordDecided = true
			e.homeDecided = true
			e.allCommit = e.commit
			x.relayDecides(e)
			x.checkComplete(e)
		} else {
			e.allCommit = true
			x.recordVote(e, x.group, e.vote)
			if !e.coordDecided {
				x.sendPrepRelays(e)
			}
		}
		if !e.doneC {
			x.armTimer(e)
		}
	}
}
