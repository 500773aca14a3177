package dbsm

import (
	"math/rand"
	"testing"
)

func specTxn(tid uint64, last uint64, reads, writes []TupleID) *TxnCert {
	return &TxnCert{
		TID:           tid,
		Site:          SiteID(TIDSite(tid)),
		LastCommitted: last,
		ReadSet:       NewItemSet(reads...),
		WriteSet:      NewItemSet(writes...),
	}
}

// In matching order, tentative outcomes are exactly what a plain certifier
// produces on the same stream, and Final confirms them without rollbacks.
func TestSpecMatchingOrderEqualsConservative(t *testing.T) {
	spec := NewSpecCertifier(NewCertifier())
	ref := NewCertifier()
	hot := MakeTupleID(1, 1)
	txns := []*TxnCert{
		specTxn(1, 0, nil, []TupleID{hot}),
		specTxn(2, 0, []TupleID{hot}, []TupleID{MakeTupleID(1, 2)}), // conflicts with 1
		specTxn(3, 1, []TupleID{hot}, nil),                          // snapshot saw 1: no conflict
	}
	tentOuts := make([]Outcome, len(txns))
	for i, tc := range txns {
		tentOuts[i] = spec.Tentative(tc)
	}
	for i, tc := range txns {
		out, rolled := spec.Final(tc)
		if rolled != nil {
			t.Fatalf("txn %d: rollback in matching order", tc.TID)
		}
		if out != tentOuts[i] {
			t.Fatalf("txn %d: final %+v != tentative %+v", tc.TID, out, tentOuts[i])
		}
		if want := ref.Certify(tc); out != want {
			t.Fatalf("txn %d: speculative %+v != conservative %+v", tc.TID, out, want)
		}
	}
	if spec.Rollbacks != 0 || spec.Matches != 3 || spec.Pending() != 0 {
		t.Fatalf("stats: %+v pending=%d", spec, spec.Pending())
	}
}

// When the final order diverges from the tentative order, the speculative
// path must still produce the conservative outcomes of the final stream.
func TestSpecReorderRollsBackToConservativeOutcomes(t *testing.T) {
	spec := NewSpecCertifier(NewCertifier())
	ref := NewCertifier()
	hot := MakeTupleID(1, 7)
	t1 := specTxn(1, 0, []TupleID{hot}, []TupleID{hot})
	t2 := specTxn(2, 0, []TupleID{hot}, []TupleID{hot})
	// Tentative order: t1, t2. t2 tentatively aborts (conflict with t1).
	if out := spec.Tentative(t1); !out.Commit {
		t.Fatal("t1 tentative abort")
	}
	if out := spec.Tentative(t2); out.Commit {
		t.Fatal("t2 tentative commit despite conflict")
	}
	// Final order: t2, t1 — the opposite. t2 must commit, t1 must abort.
	out2, rolled := spec.Final(t2)
	if rolled == nil || len(rolled) != 1 || rolled[0].TID != 1 {
		t.Fatalf("rollback missing or wrong: %v", rolled)
	}
	if want := ref.Certify(t2); out2 != want {
		t.Fatalf("t2 final %+v, conservative %+v", out2, want)
	}
	// Re-speculate the survivor as the replica would.
	tentOut1 := spec.Tentative(t1)
	out1, rolled := spec.Final(t1)
	if rolled != nil {
		t.Fatal("second rollback after re-speculation in final order")
	}
	if out1 != tentOut1 {
		t.Fatalf("re-speculated outcome %+v != final %+v", tentOut1, out1)
	}
	if want := ref.Certify(t1); out1 != want {
		t.Fatalf("t1 final %+v, conservative %+v", out1, want)
	}
	if spec.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d", spec.Rollbacks)
	}
}

// A final delivery with no tentative counterpart (e.g. the tentative stage
// was skipped for it) falls back to conservative certification without
// counting a rollback.
func TestSpecFinalWithoutTentative(t *testing.T) {
	spec := NewSpecCertifier(NewCertifier())
	tc := specTxn(9, 0, nil, []TupleID{MakeTupleID(1, 3)})
	out, rolled := spec.Final(tc)
	if !out.Commit || out.Seq != 1 || rolled != nil {
		t.Fatalf("out=%+v rolled=%v", out, rolled)
	}
	if spec.Rollbacks != 0 {
		t.Fatal("no-tentative fallback counted as rollback")
	}
}

// A discarded message (view change dropped it; it will never finalize) must
// not wedge the queue: Invalidate unwinds it and the survivors re-speculate
// cleanly, after which matching finals confirm without further rollbacks.
func TestSpecInvalidateUnwedgesQueue(t *testing.T) {
	spec := NewSpecCertifier(NewCertifier())
	ref := NewCertifier()
	w := func(i uint64) []TupleID { return []TupleID{MakeTupleID(1, i)} }
	t1 := specTxn(1, 0, nil, w(1)) // will be discarded at the view change
	t2 := specTxn(2, 0, nil, w(2))
	t3 := specTxn(3, 0, nil, w(3))
	spec.Tentative(t1)
	spec.Tentative(t2)
	spec.Tentative(t3)
	rolled := spec.Invalidate(t1.TID)
	if len(rolled) != 2 || rolled[0].TID != 2 || rolled[1].TID != 3 {
		t.Fatalf("rolled = %v", rolled)
	}
	for _, tc := range rolled {
		spec.Tentative(tc)
	}
	for _, tc := range []*TxnCert{t2, t3} {
		out, rb := spec.Final(tc)
		if rb != nil {
			t.Fatalf("txn %d rolled back after invalidation recovery", tc.TID)
		}
		if want := ref.Certify(tc); out != want {
			t.Fatalf("txn %d: %+v != conservative %+v", tc.TID, out, want)
		}
	}
	// Invalidating an unknown TID is a no-op.
	if spec.Invalidate(99) != nil {
		t.Fatal("unknown TID invalidation rolled something back")
	}
}

// Randomized equivalence: whatever permutation the final order applies to
// the tentative order, outcomes must match a conservative certifier fed the
// final stream, and the Seq numbering must be identical.
// Small index windows put generation changes inside the tentative suffix.
func TestSpecRandomizedPermutationEquivalence(t *testing.T) {
	forWindows(t, specRandomizedPermutationEquivalence)
}

func specRandomizedPermutationEquivalence(t *testing.T, window uint64) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		spec := NewSpecCertifier(newWindowed(window))
		ref := NewCertifier()
		n := 2 + rng.Intn(6)
		txns := make([]*TxnCert, n)
		for i := range txns {
			var reads, writes []TupleID
			for j := 0; j < 1+rng.Intn(3); j++ {
				reads = append(reads, MakeTupleID(1, uint64(rng.Intn(4))))
			}
			for j := 0; j < rng.Intn(3); j++ {
				writes = append(writes, MakeTupleID(1, uint64(rng.Intn(4))))
			}
			txns[i] = specTxn(uint64(100+i), uint64(rng.Intn(2)), reads, writes)
		}
		for _, tc := range txns {
			spec.Tentative(tc)
		}
		final := rng.Perm(n)
		for _, idx := range final {
			tc := txns[idx]
			out, rolled := spec.Final(tc)
			for _, r := range rolled {
				spec.Tentative(r) // re-speculate as the replica does
			}
			if want := ref.Certify(tc); out != want {
				t.Fatalf("round %d: txn %d speculative %+v != conservative %+v (perm %v)",
					round, tc.TID, out, want, final)
			}
		}
	}
}

// Deferred pruning: the speculative wrapper prunes only finalized history,
// at the same positions a conservative certifier with the same MaxHistory
// would, and a stale snapshot aborts identically on both paths.
func TestSpecDeferredPruningMatchesConservative(t *testing.T) {
	base := NewCertifier()
	base.MaxHistory = 4
	spec := NewSpecCertifier(base)
	ref := NewCertifier()
	ref.MaxHistory = 4
	for i := 0; i < 12; i++ {
		tc := specTxn(uint64(i+1), uint64(i), nil, []TupleID{MakeTupleID(1, uint64(i))})
		spec.Tentative(tc)
		out, rolled := spec.Final(tc)
		if rolled != nil {
			t.Fatalf("txn %d: unexpected rollback", i+1)
		}
		if want := ref.Certify(tc); out != want {
			t.Fatalf("txn %d: %+v != %+v", i+1, out, want)
		}
	}
	if got, want := base.HistoryLen(), ref.HistoryLen(); got != want {
		t.Fatalf("history %d != conservative %d", got, want)
	}
	// A reader whose snapshot predates the retained window aborts on both.
	stale := specTxn(99, 1, []TupleID{MakeTupleID(9, 9)}, nil)
	spec.Tentative(stale)
	out, _ := spec.Final(stale)
	if want := ref.Certify(stale); out != want || out.Commit {
		t.Fatalf("stale snapshot: speculative %+v, conservative %+v", out, want)
	}
}
