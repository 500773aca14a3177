package dbsm

import "testing"

// TestMarshalToAllocFree pins the zero-allocation budget of the hot marshal
// path: with a warm scratch buffer, TxnCert.MarshalTo must not allocate —
// the zero padding comes from the shared chunk and the encoding reuses the
// caller's buffer.
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
// reused record, the write-set and nothing else; through the fresh-record
// wrapper, the record and its read-set storage on top.
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
// transaction reads and writes two rows of a 4096-row table and has seen
// everything before it — so a certifier bounded well below 4096 entries
// reaches a steady state in which the history is full and the index neither
// grows nor shrinks.
func steadyStream(n int) []*TxnCert {
	stream := make([]*TxnCert, n)
	for i := range stream {
		ws := NewItemSet(MakeTupleID(1, uint64(i%4096)), MakeTupleID(1, uint64((i*7+1)%4096)))
		stream[i] = &TxnCert{TID: uint64(i + 1), LastCommitted: uint64(i), ReadSet: ws, WriteSet: ws}
	}
	return stream
}

// TestCertifySteadyStateAllocs pins what a commit costs once the history is
// at its bound: the certifier adopts the message's write-set and reuses the
// block the pruning just drained, and the speculative wrapper's queue and
// undo stack are cut back to the same arrays — nothing is allocated per
// transaction (AllocsPerRun's integer average absorbs the index map's rare
// rehash).
func TestCertifySteadyStateAllocs(t *testing.T) {
	const warm, runs = 4 * histBlock, 8 * histBlock
	stream := steadyStream(warm + runs + 1)

	plain := NewCertifier()
	plain.MaxHistory = 300 // not a multiple of the block size
	i := 0
	next := func() *TxnCert { i++; return stream[i-1] }
	for i < warm {
		plain.Certify(next())
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		if !plain.Certify(next()).Commit {
			t.Fatal("steady stream aborted")
		}
	}); allocs != 0 {
		t.Fatalf("Certify at the history bound: %v allocs/op, want 0", allocs)
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
	if allocs := testing.AllocsPerRun(runs, both); allocs != 0 {
		t.Fatalf("Tentative + matching Final at the history bound: %v allocs/op, want 0", allocs)
	}
	if len(base.undo) != 0 || len(spec.tent) != 0 {
		t.Fatalf("drained queue left %d undo records and %d queue slots", len(base.undo), len(spec.tent))
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
