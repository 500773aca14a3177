package dbsm

import (
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

// TestUnmarshalAllocBudget pins the decode path at its fixed budget: into a
// reused record (TxnCert.UnmarshalFrom), the write-set and nothing else;
// through the fresh-record wrapper, the record and its read-set storage on
// top.
func TestUnmarshalAllocBudget(t *testing.T) {
	tc := &TxnCert{
		TID: 7, ReadSet: NewItemSet(1, 2, 3), WriteSet: NewItemSet(9),
		WriteBytes: 128,
	}
	wire := tc.Marshal()
	var rec TxnCert
	if allocs := testing.AllocsPerRun(100, func() {
		if err := rec.UnmarshalFrom(wire); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("UnmarshalFrom into a reused record: %v allocs/op, want 1 (the write-set)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(wire); err != nil {
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
// adopts the message's write-set and reuses the block the pruning just
// drained, a generation change clears a map that keeps its storage, and the
// speculative wrapper's queue and undo stack are cut back to the same arrays.
// Through four generation changes, not one allocation. It holds
// Certifier.Certify, commit, indexWrites and firstConflict, and
// SpecCertifier.Tentative and Final.
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
// certification scans ~2 500 retained entries — and allocates nothing. It
// holds Certifier.firstConflictStale.
func TestStaleSnapshotAllocFree(t *testing.T) {
	const lag, runs = 2500, 256
	stream := steadyStream(3*indexWindow + runs + 1)
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
	for i < 3*indexWindow {
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

// TestScanCertifierAllocFree pins the reference procedure,
// Certifier.certifyScan, at its history bound, and PeekTID.
func TestScanCertifierAllocFree(t *testing.T) {
	const warm, runs = 4 * histBlock, 8 * histBlock
	stream := steadyStream(warm + runs + 1)
	c := NewScanCertifier()
	c.MaxHistory = 300
	i := 0
	next := func() *TxnCert { i++; return stream[i-1] }
	for i < warm {
		c.Certify(next())
	}
	if n := mallocs(runs, func() {
		if !c.Certify(next()).Commit {
			t.Fatal("steady stream aborted")
		}
	}); n != 0 {
		t.Fatalf("scan Certify at the history bound: %d allocs in %d commits, want 0", n, runs)
	}
	wire := stream[0].Marshal()
	if n := mallocs(100, func() {
		if tid, err := PeekTID(wire); err != nil || tid != 1 {
			t.Fatalf("PeekTID = %d, %v", tid, err)
		}
	}); n != 0 {
		t.Fatalf("PeekTID: %d allocs, want 0", n)
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
