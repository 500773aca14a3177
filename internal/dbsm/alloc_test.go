package dbsm

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestMarshalToAllocFree pins the zero-allocation budget of the hot marshal
// path: with a warm scratch buffer, TxnCert.MarshalTo (and AppendTo, which
// it calls) must not allocate — the zero padding comes from the shared chunk
// and the encoding reuses the caller's buffer.
func TestMarshalToAllocFree(t *testing.T) {
	tc := &TxnCert{
		TID: 7, Site: 2, LastCommitted: 40,
		ReadSet:    NewItemSet(MakeTupleID(1, 10), MakeTupleID(2, 20), MakeTupleID(3, 30)),
		WriteSet:   NewItemSet(MakeTupleID(1, 10)),
		WriteBytes: 9000, // > one zero chunk, exercising the chunked padding
	}
	scratch := tc.MarshalTo(nil)
	allocs := testing.AllocsPerRun(100, func() {
		scratch = tc.MarshalTo(scratch)
	})
	if allocs != 0 {
		t.Fatalf("MarshalTo with warm scratch: %v allocs/op, want 0", allocs)
	}
	if _, err := Unmarshal(scratch); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

// TestUnmarshalAllocBudget pins the decode path: into a reused record
// (TxnCert.UnmarshalFrom) whose arrays have held sets as large, nothing at
// all, whichever message comes next; PeekTID, nothing; through the
// fresh-record wrapper, the record and its two sets.
func TestUnmarshalAllocBudget(t *testing.T) {
	big := (&TxnCert{
		TID: 7, ReadSet: NewItemSet(1, 2, 3), WriteSet: NewItemSet(9, 10),
		WriteBytes: 128,
	}).Marshal()
	small := (&TxnCert{TID: 8, ReadSet: NewItemSet(4), WriteSet: NewItemSet(11)}).Marshal()
	var rec TxnCert
	if allocs := testing.AllocsPerRun(100, func() {
		for _, w := range [2][]byte{small, big} {
			if err := rec.UnmarshalFrom(w); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("UnmarshalFrom into a reused record: %v allocs/op, want 0", allocs)
	}
	if rec.TID != 7 || len(rec.ReadSet) != 3 || len(rec.WriteSet) != 2 {
		t.Fatalf("last decode left %+v", rec)
	}
	if n := mallocs(100, func() {
		if tid, err := PeekTID(big); err != nil || tid != 7 {
			t.Fatalf("PeekTID = %d, %v", tid, err)
		}
	}); n != 0 {
		t.Fatalf("PeekTID: %d allocs, want 0", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(big); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Fatalf("Unmarshal: %v allocs/op, want <= 3 (record, read-set, write-set)", allocs)
	}
}

// steadyStream is a certification stream that always commits — each
// transaction reads and writes row i%4096 of two tables and has seen
// everything before it — so a certifier bounded well below 4096 entries
// reaches a steady state in which the history is full, and every index
// generation holds the same number of cells: two per commit.
func steadyStream(n int) []*TxnCert {
	stream := make([]*TxnCert, n)
	for i := range stream {
		ws := NewItemSet(MakeTupleID(1, uint64(i%4096)), MakeTupleID(2, uint64(i%4096)))
		stream[i] = &TxnCert{TID: uint64(i + 1), LastCommitted: uint64(i), ReadSet: ws, WriteSet: ws}
	}
	return stream
}

// mallocs is testing.AllocsPerRun without the integer average: the heap
// allocations of runs calls of f, after one warm-up call, in total.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCertifySteadyStateAllocs pins what a commit costs once the history is
// at its bound and both index generations have grown once: the certifier
// copies the message's write-set into an arena block and reuses the history
// and arena blocks the pruning just drained, a generation change clears a
// TupleMap's array in place, and the speculative wrapper's queue and undo stack
// are cut back to the same arrays. Through four generation changes and
// several arena blocks, not one allocation. It holds Certifier.Certify,
// commit, indexWrites and firstConflict, history.push and dropFront,
// Arena.Copy and keep, and SpecCertifier.Tentative and Final.
func TestCertifySteadyStateAllocs(t *testing.T) {
	const warm, runs = 3 * indexWindow, 4*indexWindow + 1
	stream := steadyStream(warm + runs + 1)

	plain := NewCertifier()
	plain.MaxHistory = 300 // not a multiple of the block size
	i := 0
	next := func() *TxnCert { i++; return stream[i-1] }
	for i < warm {
		plain.Certify(next())
	}
	_, horizon := plain.IndexCells()
	if n := mallocs(runs, func() {
		if !plain.Certify(next()).Commit {
			t.Fatal("steady stream aborted")
		}
	}); n != 0 {
		t.Fatalf("Certify at the history bound: %d allocs in %d commits, want 0", n, runs)
	}
	if _, h := plain.IndexCells(); h < horizon+4*indexWindow {
		t.Fatalf("horizon %d -> %d: fewer than four generation changes", horizon, h)
	}

	base := NewCertifier()
	base.MaxHistory = 300
	spec := NewSpecCertifier(base)
	i = 0
	both := func() {
		tc := next()
		out := spec.Tentative(tc)
		if final, rolled := spec.Final(tc); final != out || !out.Commit || rolled != nil {
			t.Fatalf("matching final: tentative %+v, final %+v, rolled %v", out, final, rolled)
		}
	}
	for i < warm {
		both()
	}
	if n := mallocs(runs, both); n != 0 {
		t.Fatalf("Tentative + matching Final at the history bound: %d allocs in %d commits, want 0", n, runs)
	}
	if len(base.undo) != 0 || len(spec.tent) != 0 {
		t.Fatalf("drained queue left %d undo records and %d queue slots", len(base.undo), len(spec.tent))
	}
}

// TestStaleSnapshotAllocFree pins the history-scan answer: every snapshot
// here is older than the index's horizon but inside MaxHistory, so each
// certification scans ~2 500 retained entries — and allocates nothing, with
// the history's 6 000 items spread over arena blocks it recycles. It holds
// Certifier.firstConflictStale.
func TestStaleSnapshotAllocFree(t *testing.T) {
	const warm, lag, runs = 2 * arenaBlock, 2500, 1024
	stream := steadyStream(warm + runs + 1)
	c := NewCertifier()
	c.MaxHistory = 3000
	i := 0
	stale := func() {
		tc := stream[i]
		i++
		tc.LastCommitted = c.Seq() - min(c.Seq(), lag)
		if !c.Certify(tc).Commit {
			t.Fatal("steady stream aborted")
		}
	}
	for i < warm {
		stale()
	}
	before := c.StaleAnswers()
	if n := mallocs(runs, stale); n != 0 {
		t.Fatalf("stale-snapshot Certify: %d allocs in %d commits, want 0", n, runs)
	}
	if got := c.StaleAnswers() - before; got != runs+1 {
		t.Fatalf("%d of %d certifications answered from the history", got, runs+1)
	}
}

// TestSpecRollbackAllocFree pins a rollback at the history bound: each pair
// of messages arrives swapped in tentative order, so its first final delivery
// rolls the queue back and certifies, and the second re-speculates and
// matches. The two undone tentative commits give their arena items back
// (history.truncate rewinds the fill point), so each pair advances the arena
// by its two finalized sets only, and the rolled-back slice is the
// certifier's own. Through four generation changes, not one allocation. It
// holds SpecCertifier.rollback and Final's mismatch path, Certifier.truncate
// and history.truncate.
func TestSpecRollbackAllocFree(t *testing.T) {
	const warm, runs = arenaBlock, 2 * indexWindow // pairs
	stream := steadyStream(2*(warm+runs+1) + 1)
	base := NewCertifier()
	base.MaxHistory = 300
	spec := NewSpecCertifier(base)
	i := 0
	swapped := func() {
		a, b := stream[i], stream[i+1]
		i += 2
		spec.Tentative(a)
		spec.Tentative(b)
		if out, rolled := spec.Final(b); !out.Commit || len(rolled) != 1 || rolled[0] != a {
			t.Fatalf("swapped final: %+v, rolled back %d", out, len(rolled))
		}
		spec.Tentative(a) // re-speculate as the replica does
		if out, rolled := spec.Final(a); !out.Commit || rolled != nil {
			t.Fatalf("re-speculated final: %+v, rolled back %d", out, len(rolled))
		}
	}
	for i < 2*warm {
		swapped()
	}
	fill := base.hist.items.fill
	if n := mallocs(runs, swapped); n != 0 {
		t.Fatalf("swapped pair at the history bound: %d allocs in %d pairs, want 0", n, runs)
	}
	// Two-item sets fill a block exactly, so no set skipped a block's tail.
	if got, want := base.hist.items.fill-fill, 4*(runs+1); got != want {
		t.Fatalf("the arena advanced %d items in %d pairs, want %d: rolled-back sets kept their space", got, runs+1, want)
	}
	if spec.Rollbacks != int64(warm+runs+1) {
		t.Fatalf("%d rollbacks in %d pairs", spec.Rollbacks, warm+runs+1)
	}
}

// BenchmarkCertifyAtHistoryBound times a commit on a certifier whose history
// is full at the replica's default bound, where every commit also drops the
// oldest entry: the cost must not depend on the 50 000 entries retained.
func BenchmarkCertifyAtHistoryBound(b *testing.B) {
	c := NewCertifier()
	c.MaxHistory = 50000
	stream := steadyStream(c.MaxHistory + 4096)
	for _, tc := range stream {
		c.Certify(tc)
	}
	b.ReportAllocs()
	for b.Loop() {
		tc := stream[c.Seq()%uint64(len(stream))]
		tc.LastCommitted = c.Seq()
		if !c.Certify(tc).Commit {
			b.Fatal("steady stream aborted")
		}
	}
}

// BenchmarkCertifyNewOrderShape times Certify on the shape that dominates
// the TPC-C commit stream: a new-order reading 10 ITEM rows (a table no
// commit writes), 10 STOCK rows, the 12 rows it inserts and a customer
// (never written either), writing the STOCK rows and the insertions, with a
// snapshot 1–3 commits old, against an index at its steady size (both
// generations full) and a history at its bound. BENCH_38.json has its ns/op
// before and after certification learned to skip unwritten tables.
func BenchmarkCertifyNewOrderShape(b *testing.B) {
	const (
		tCustomer, tNewOrder, tOrder, tOrderLine, tItem, tStock = 3, 5, 6, 7, 8, 9
		shapes                                                  = 4096
	)
	rng := rand.New(rand.NewSource(1))
	stream := make([]*TxnCert, shapes)
	for i := range stream {
		var rs, ws []TupleID
		for range 10 {
			item := uint64(rng.Intn(100000))
			stock := MakeTupleID(tStock, uint64(rng.Intn(30))*100000+item)
			rs = append(rs, MakeTupleID(tItem, item), stock)
			ws = append(ws, stock)
		}
		ins := []TupleID{MakeTupleID(tOrder, uint64(i)), MakeTupleID(tNewOrder, 1<<40|uint64(i))}
		for l := range 10 {
			ins = append(ins, MakeTupleID(tOrderLine, uint64(i)*16+uint64(l)))
		}
		rs = append(append(rs, ins...), MakeTupleID(tCustomer, uint64(rng.Intn(900000))))
		ws = append(ws, ins...)
		stream[i] = &TxnCert{TID: uint64(i + 1), ReadSet: NewItemSet(rs...), WriteSet: NewItemSet(ws...)}
	}
	c := NewCertifier()
	c.MaxHistory = 2 * indexWindow // the history at its bound too
	certify := func(i int) {
		tc := stream[i%shapes]
		tc.LastCommitted = c.Seq() - min(c.Seq(), uint64(1+i%3))
		c.Certify(tc)
	}
	for i := range 3 * indexWindow {
		certify(i)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		certify(i)
		i++
	}
}
