package replica

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/sim"
	"repro/internal/xgroup"
)

// buildGroupCluster is one replication group — group 1 of two, n sites — so
// every site carries a real xmgr. Group 2's sites (n+1..2n) do not exist:
// relays to them are refused by the network and nothing answers, which leaves
// a round exactly where the test's stream events put it. Table g belongs to
// group g, table 0 is the catalog.
func buildGroupCluster(t *testing.T, n int) (*sim.Kernel, []*testSite) {
	t.Helper()
	return buildClusterOpts(t, n, Options{
		Group: 1, GroupCount: 2, SitesPerGroup: n,
		GroupOf: func(id dbsm.TupleID) int { return int(id.Table()) },
	})
}

// remoteTID names a transaction coordinated by site 4 — nobody's local one.
func remoteTID(i int) uint64 { return dbsm.MakeTID(4, uint32(i)) }

func rows(table int, rs ...int) dbsm.ItemSet {
	ids := make([]dbsm.TupleID, len(rs))
	for i, r := range rs {
		ids[i] = dbsm.MakeTupleID(uint16(table), uint64(r))
	}
	return dbsm.NewItemSet(ids...)
}

// prepFor is a prepare from group 2 carrying the given part for group 1 (no
// part at all when writes is nil) next to group 2's own.
func prepFor(tid uint64, reads, writes dbsm.ItemSet) *xgroup.Prepare {
	p := &xgroup.Prepare{TID: tid, Coordinator: 4, HomeGroup: 2}
	if writes != nil {
		p.Parts = append(p.Parts, xgroup.Part{Group: 1, Cert: dbsm.TxnCert{TID: tid, Site: 4, ReadSet: reads, WriteSet: writes}})
	}
	p.Parts = append(p.Parts, xgroup.Part{Group: 2, Cert: dbsm.TxnCert{TID: tid, Site: 4, WriteSet: rows(2, 1)}})
	return p
}

// reservedRef is the reservation table as veto used to find it: every entry
// of pending with a commit vote, no decision and a part.
func reservedRef(x *xmgr) []*dbsm.TxnCert {
	var out []*dbsm.TxnCert
	for _, e := range x.pending {
		if e.voted && e.vote && !e.decided && e.part != nil {
			out = append(out, e.part)
		}
	}
	return out
}

func TestXActiveHoldsOnlyRoundsInFlight(t *testing.T) {
	_, sites := buildGroupCluster(t, 1)
	r := sites[0].rep
	x := r.x
	const rounds = 20
	for i := 1; i <= rounds; i++ {
		tid := remoteTID(i)
		p := prepFor(tid, rows(1, i), rows(1, i))
		x.prepareDelivered(p)
		x.prepareDelivered(p) // a duplicate injection settles nothing twice
		if len(x.active) != 1 || x.active[0] != x.pending[tid] {
			t.Fatalf("round %d: active = %d entries after the prepare", i, len(x.active))
		}
		x.decideDelivered(tid, i%2 == 0)
		x.decideDelivered(tid, i%2 == 0)
		x.checkActive()
		if len(x.active) != 0 {
			t.Fatalf("round %d: the reservation outlived its decision", i)
		}
	}
	if len(x.pending) != rounds {
		t.Fatalf("pending holds %d entries, want every round (%d): late probes need them", len(x.pending), rounds)
	}
	if st := r.Stats(); st.XCommitted != rounds/2 || st.XAborted != rounds/2 || st.CertDrops != 0 {
		t.Fatalf("duplicates counted: %d commits, %d aborts, %d drops", st.XCommitted, st.XAborted, st.CertDrops)
	}
}

func TestXActiveSkipsAbortVotesAndEmptyHanded(t *testing.T) {
	_, sites := buildGroupCluster(t, 1)
	x := sites[0].rep.x
	x.prepareDelivered(prepFor(remoteTID(1), nil, rows(1, 7)))
	// The second writes the reserved row: its vote is abort.
	x.prepareDelivered(prepFor(remoteTID(2), nil, rows(1, 7)))
	// The third has nothing for this group.
	x.prepareDelivered(prepFor(remoteTID(3), nil, nil))
	x.checkActive()
	if e := x.pending[remoteTID(2)]; !e.voted || e.vote {
		t.Fatal("conflicting prepare was not voted down")
	}
	if e := x.pending[remoteTID(3)]; !e.vote || e.part != nil {
		t.Fatal("part-less prepare must vote commit with no part")
	}
	if len(x.active) != 1 || x.active[0].tid != remoteTID(1) {
		t.Fatalf("active holds %d entries, want only the first prepare", len(x.active))
	}
	for i := 3; i >= 1; i-- {
		x.decideDelivered(remoteTID(i), i != 2)
		x.checkActive()
	}
	if len(x.active) != 0 {
		t.Fatalf("%d reservations left after every decision", len(x.active))
	}
}

// TestXVetoEqualsFullScan: over a random interleaving of prepares, decisions
// and certifications, veto charges and answers what the scan over every
// pending entry would.
func TestXVetoEqualsFullScan(t *testing.T) {
	_, sites := buildGroupCluster(t, 1)
	r := sites[0].rep
	x := r.x
	charged := 0
	r.cert.Charge = func(items int) { charged += items }
	rng := rand.New(rand.NewSource(23))
	set := func(max int) dbsm.ItemSet {
		rs := make([]int, rng.Intn(max+1))
		for i := range rs {
			rs[i] = rng.Intn(25)
		}
		return rows(1, rs...)
	}
	var open []uint64
	vetoes, maxActive := int64(0), 0
	for step, next := 0, 1; step < 4000; step++ {
		switch k := rng.Intn(10); {
		case k < 2 && len(open) < 6:
			writes := set(3)
			if rng.Intn(8) == 0 {
				writes = nil
			}
			x.prepareDelivered(prepFor(remoteTID(next), set(4), writes))
			open = append(open, remoteTID(next))
			next++
		case k < 4 && len(open) > 0:
			i := rng.Intn(len(open))
			x.decideDelivered(open[i], rng.Intn(2) == 0)
			open = append(open[:i], open[i+1:]...)
		default:
			tc := &dbsm.TxnCert{TID: dbsm.MakeTID(1, uint32(step)), ReadSet: set(5), WriteSet: set(3)}
			ref := reservedRef(x)
			wantCharge, want := len(ref)*(len(tc.ReadSet)+len(tc.WriteSet)), false
			for _, p := range ref {
				want = want || tc.WriteSet.Intersects(p.WriteSet) || tc.WriteSet.Intersects(p.ReadSet) || tc.ReadSet.Intersects(p.WriteSet)
			}
			charged = 0
			if got := x.veto(tc); got != want || charged != wantCharge {
				t.Fatalf("step %d: veto = %t charging %d, full scan says %t charging %d (%d reservations)",
					step, got, charged, want, wantCharge, len(ref))
			}
			if want {
				vetoes++
			}
		}
		x.checkActive()
		maxActive = max(maxActive, len(x.active))
	}
	if r.stats.XVetoes != vetoes || vetoes == 0 || maxActive < 3 {
		t.Fatalf("XVetoes = %d, reference %d, at most %d reservations at once: the sequence must exercise both", r.stats.XVetoes, vetoes, maxActive)
	}
}

// A member that got some fragments of an oversized relayed prepare and then
// delivered the prepare from its group's stream must not keep the partial
// assembly: once the group has voted nobody retransmits the rest.
func TestXPrepareDeliveryDropsPartialAssembly(t *testing.T) {
	_, sites := buildGroupCluster(t, 2)
	x := sites[1].rep.x // not the sequencer: it only assembles
	p := prepFor(remoteTID(1), rows(1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), rows(1, 1))
	enc := xgroup.AppendPrepare(nil, xgroup.MsgPrepare, p, 0)
	frames := xgroup.FragmentPrepare(enc, p.TID, len(enc)/2)
	if len(frames) < 2 {
		t.Fatalf("prepare of %d bytes made %d fragments", len(enc), len(frames))
	}
	x.onRelay(4, frames[0])
	if x.frags[p.TID] == nil {
		t.Fatal("first fragment was not kept")
	}
	x.onStream(enc)
	if len(x.frags) != 0 {
		t.Fatal("partial assembly survived the prepare's stream delivery")
	}
	if len(x.active) != 1 || sites[1].rep.Stats().CertDrops != 0 {
		t.Fatalf("stream delivery did not reserve: %d active", len(x.active))
	}
}

// TestXFragmentsOutliveTheirUpcall: a relayed fragment is lent for its
// upcall only — the runtime reuses the datagram's buffer as soon as the
// upcall returns — so the assembly keeps copies. Fragments delivered last
// first, from one buffer that is overwritten after every upcall, still
// restore the prepare, which the sequencer injects into its group's stream
// and reserves intact.
func TestXFragmentsOutliveTheirUpcall(t *testing.T) {
	k, sites := buildGroupCluster(t, 1)
	x := sites[0].rep.x // the group's sequencer
	p := prepFor(remoteTID(1), rows(1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), rows(1, 1))
	enc := xgroup.AppendPrepare(nil, xgroup.MsgPrepare, p, 0)
	frames := xgroup.FragmentPrepare(enc, p.TID, len(enc)/3)
	if len(frames) < 3 {
		t.Fatalf("prepare of %d bytes made %d fragments", len(enc), len(frames))
	}
	var lent []byte
	k.ScheduleAt(10*sim.Millisecond, func() {
		sites[0].rt.CPUs().SubmitReal(func() {
			for i := len(frames) - 1; i >= 0; i-- {
				lent = append(lent[:0], frames[i]...)
				x.onRelay(4, lent)
				for j := range lent {
					lent[j] = 0xFF
				}
			}
		}, nil)
	})
	if err := k.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
	e := x.pending[p.TID]
	if e == nil || e.part == nil || sites[0].rep.Stats().CertDrops != 0 {
		t.Fatalf("the reassembled prepare was not reserved (entry %v, %d drops)", e, sites[0].rep.Stats().CertDrops)
	}
	want := p.Parts[0].Cert
	if !slices.Equal(e.part.ReadSet, want.ReadSet) || !slices.Equal(e.part.WriteSet, want.WriteSet) {
		t.Fatalf("reserved part reads %v writes %v, want %v and %v", e.part.ReadSet, e.part.WriteSet, want.ReadSet, want.WriteSet)
	}
}

// TestXHotPathsDoNotAllocate pins the per-transaction checks of a group's
// cross-group manager — xmgr.veto, conflicts and homeOnly — at zero
// allocations against three reservations in flight.
func TestXHotPathsDoNotAllocate(t *testing.T) {
	_, sites := buildGroupCluster(t, 1)
	x := sites[0].rep.x
	for i := 1; i <= 3; i++ {
		x.prepareDelivered(prepFor(remoteTID(i), rows(1, 10*i, 10*i+1), rows(1, 10*i)))
	}
	if len(x.active) != 3 {
		t.Fatalf("%d reservations, want 3", len(x.active))
	}
	miss := &dbsm.TxnCert{ReadSet: rows(1, 1, 2, 3), WriteSet: rows(1, 2)}
	hit := &dbsm.TxnCert{ReadSet: rows(1, 1, 30), WriteSet: rows(1, 2)}
	local := &dbsm.TxnCert{ReadSet: rows(1, 1, 2, 3).Clone(), WriteSet: rows(0, 4)}
	remote := &dbsm.TxnCert{ReadSet: rows(1, 1), WriteSet: rows(2, 1)}
	for name, fn := range map[string]func() bool{
		"veto, no conflict":     func() bool { return !x.veto(miss) },
		"veto, conflict":        func() bool { return x.veto(hit) },
		"conflicts":             func() bool { return x.conflicts(hit) && !x.conflicts(miss) },
		"single-group classify": func() bool { return x.homeOnly(local.ReadSet) && x.homeOnly(local.WriteSet) },
		"cross-group classify":  func() bool { return x.homeOnly(remote.ReadSet) && !x.homeOnly(remote.WriteSet) },
	} {
		ok := true
		if n := testing.AllocsPerRun(50, func() { ok = ok && fn() }); n != 0 || !ok {
			t.Errorf("%s: %v allocations per run, right answer %t", name, n, ok)
		}
	}
}

// TestXReservationLifecycleOnTheStream takes a cross-group transaction
// through the real path — classification, split, prepare on the home stream —
// at three sites: its reservation vetoes a conflicting local transaction at
// every member until the decision is delivered, and not after.
func TestXReservationLifecycleOnTheStream(t *testing.T) {
	k, sites := buildGroupCluster(t, 3)
	hot, far := dbsm.MakeTupleID(1, 9), dbsm.MakeTupleID(2, 9)
	submit := func(site int, local uint32, at sim.Time, out *db.Outcome, writes ...dbsm.TupleID) {
		txn := txnFor(dbsm.MakeTID(dbsm.SiteID(site), local), writes[0])
		txn.WriteSet = dbsm.NewItemSet(writes...)
		txn.Done = func(_ *db.Txn, o db.Outcome) { *out = o }
		k.ScheduleAt(at, func() { sites[site-1].server.Submit(txn) })
	}
	var crossing, during, after db.Outcome
	submit(1, 1, 0, &crossing, hot, far)
	submit(2, 1, 300*sim.Millisecond, &during, hot)
	k.ScheduleAt(600*sim.Millisecond, func() {
		for i, s := range sites {
			if len(s.rep.x.active) != 1 {
				t.Errorf("site %d holds %d reservations while the round is open", i+1, len(s.rep.x.active))
			}
		}
		// Group 2 does not exist to vote: put the decision on the stream.
		sites[0].rt.CPUs().SubmitReal(func() {
			sites[0].stack.Multicast(xgroup.AppendDecision(nil, xgroup.MsgDecide, dbsm.MakeTID(1, 1), true))
		}, nil)
	})
	submit(3, 1, 900*sim.Millisecond, &after, hot)
	if err := k.RunUntil(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if crossing != db.Committed || during == db.Committed || after != db.Committed {
		t.Fatalf("outcomes: crossing %v, during the reservation %v, after it %v", crossing, during, after)
	}
	for i, s := range sites {
		st := s.rep.Stats()
		if len(s.rep.x.active) != 0 || st.XVetoes != 1 || st.XCommitted != 1 || st.CertDrops != 0 {
			t.Fatalf("site %d: %d reservations left, %d vetoes, %d cross-group commits, %d drops",
				i+1, len(s.rep.x.active), st.XVetoes, st.XCommitted, st.CertDrops)
		}
		if s.rep.CommitLog().Len() != 2 {
			t.Fatalf("site %d committed %d transactions, want the crossing one and the late one", i+1, s.rep.CommitLog().Len())
		}
	}
	if sites[0].rep.Stats().MultiGroupTxns != 1 {
		t.Fatal("site 1 did not coordinate the crossing transaction")
	}
}
