package dbsm

import (
	"testing"

	"repro/internal/sim"
)

// streamGen produces a deterministic certification stream with enough
// conflicts to exercise both verdicts.
func streamGen(seed int64, n int) []*TxnCert {
	g := sim.NewRNG(seed).Fork("state-stream")
	var out []*TxnCert
	var seq uint64
	for i := 0; i < n; i++ {
		t := &TxnCert{TID: uint64(i + 1), Site: SiteID(1 + g.Intn(3))}
		// Snapshot lags the current sequence a little, creating genuine
		// concurrency windows.
		lag := uint64(g.Intn(6))
		if lag > seq {
			lag = seq
		}
		t.LastCommitted = seq - lag
		nr, nw := 1+g.Intn(4), 1+g.Intn(3)
		var reads, writes []TupleID
		for j := 0; j < nr; j++ {
			reads = append(reads, MakeTupleID(uint16(g.Intn(3)), uint64(g.Intn(40))))
		}
		for j := 0; j < nw; j++ {
			writes = append(writes, MakeTupleID(uint16(g.Intn(3)), uint64(g.Intn(40))))
		}
		t.ReadSet = NewItemSet(reads...)
		t.WriteSet = NewItemSet(writes...)
		seq++ // upper bound; actual seq tracked loosely, harmless
		out = append(out, t)
	}
	return out
}

// TestExportImportVerdictEquivalence runs a stream through a reference
// certifier; a second certifier is built mid-stream from an exported snapshot
// and fed the remainder. Both must produce identical verdicts for the suffix.
func TestExportImportVerdictEquivalence(t *testing.T) {
	for _, maxHist := range []int{0, 8} {
		stream := streamGen(42, 400)
		cut := 250

		ref := NewCertifier()
		ref.MaxHistory = maxHist
		var refOut []Outcome
		var snap *CertState
		for i, tc := range stream {
			if i == cut {
				snap = ref.ExportState()
			}
			refOut = append(refOut, ref.Certify(tc))
		}

		joiner := NewCertifier()
		joiner.MaxHistory = maxHist
		joiner.ImportState(snap)
		if joiner.Seq() != snap.Seq {
			t.Fatalf("maxHist=%d: imported seq %d, want %d", maxHist, joiner.Seq(), snap.Seq)
		}
		for i := cut; i < len(stream); i++ {
			got := joiner.Certify(stream[i])
			if got != refOut[i] {
				t.Fatalf("maxHist=%d: verdict diverged at %d: got %+v, ref %+v",
					maxHist, i, got, refOut[i])
			}
		}
	}
}

// TestExportImportScanAgreesWithIndexed imports the same snapshot into a
// certifier and the scan reference; the suffix verdicts must agree.
func TestExportImportScanAgreesWithIndexed(t *testing.T) {
	stream := streamGen(7, 300)
	cut := 180

	ref := NewCertifier()
	for _, tc := range stream[:cut] {
		ref.Certify(tc)
	}
	snap := ref.ExportState()

	idx := NewCertifier()
	idx.ImportState(snap)
	scan := &scanCertifier{}
	scan.ImportState(snap)
	for i := cut; i < len(stream); i++ {
		a, b := idx.Certify(stream[i]), scan.Certify(stream[i])
		if a != b {
			t.Fatalf("indexed/scan diverged at %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestExportIsDeepCopy mutates the donor after export; the snapshot must be
// unaffected (the donor keeps certifying while the snapshot is in transit).
func TestExportIsDeepCopy(t *testing.T) {
	ref := NewCertifier()
	ref.MaxHistory = 4
	stream := streamGen(9, 60)
	for _, tc := range stream[:30] {
		ref.Certify(tc)
	}
	snap := ref.ExportState()
	before := snap.WireSize()
	hist := len(snap.History)
	for _, tc := range stream[30:] {
		ref.Certify(tc) // prunes and appends under MaxHistory
	}
	if len(snap.History) != hist || snap.WireSize() != before {
		t.Fatal("snapshot mutated by donor activity after export")
	}
	for _, rec := range snap.History {
		if len(rec.WriteSet) == 0 {
			t.Fatal("snapshot history entry lost its write-set")
		}
	}
}

// TestFinalizedExcludesTentatives: a snapshot taken from a speculating
// donor must cover only the finalized prefix — a tentative commit can still
// roll back, and exporting it would hand the importer a phantom commit no
// other replica has.
func TestFinalizedExcludesTentatives(t *testing.T) {
	stream := streamGen(23, 120)
	base := NewCertifier()
	spec := NewSpecCertifier(base)
	for _, tc := range stream[:80] {
		out, _ := spec.Final(tc)
		_ = out
	}
	finalHist, finalSeq := base.HistoryLen(), base.seq
	// Outstanding speculation on the next few transactions.
	for _, tc := range stream[80:90] {
		spec.Tentative(tc)
	}
	histLen, seq := spec.Finalized()
	if histLen != finalHist || seq != finalSeq {
		t.Fatalf("Finalized() = (%d, %d), want (%d, %d)", histLen, seq, finalHist, finalSeq)
	}
	st := base.ExportState()
	st.History = st.History[:histLen]
	st.Seq = seq
	joiner := NewCertifier()
	joiner.ImportState(st)
	// The importer must now agree with a conservative certifier fed the
	// finalized stream only, for the entire remaining final order.
	ref := NewCertifier()
	for _, tc := range stream[:80] {
		ref.Certify(tc)
	}
	for _, tc := range stream[80:] {
		a, b := joiner.Certify(tc), ref.Certify(tc)
		if a != b {
			t.Fatalf("verdict diverged after truncated import: %+v vs %+v", a, b)
		}
	}
	if spec.Pending() != 10 {
		t.Fatalf("donor speculation disturbed: %d pending", spec.Pending())
	}
}

// TestImportUnderSpeculation verifies a snapshot can be imported into a
// certifier owned by a SpecCertifier (undo logging on) and that subsequent
// tentative/rollback cycles behave identically to a conservative certifier
// fed the final stream.
func TestImportUnderSpeculation(t *testing.T) {
	stream := streamGen(11, 200)
	cut := 120

	ref := NewCertifier()
	for _, tc := range stream[:cut] {
		ref.Certify(tc)
	}
	snap := ref.ExportState()
	for _, tc := range stream[cut:] {
		ref.Certify(tc)
	}

	base := NewCertifier()
	spec := NewSpecCertifier(base)
	base.ImportState(snap)
	// Tentatively certify the suffix in a permuted order, then finalize in
	// the true order: outcomes must match the conservative reference.
	suffix := stream[cut:]
	perm := append([]*TxnCert(nil), suffix...)
	perm[0], perm[1] = perm[1], perm[0]
	for _, tc := range perm {
		spec.Tentative(tc)
	}
	joinLog := []uint64{}
	for _, tc := range suffix {
		out, _ := spec.Final(tc)
		if out.Commit {
			joinLog = append(joinLog, tc.TID)
		}
	}
	refCheck := NewCertifier()
	refCheck.ImportState(snap)
	refLog := []uint64{}
	for _, tc := range suffix {
		if refCheck.Certify(tc).Commit {
			refLog = append(refLog, tc.TID)
		}
	}
	if len(joinLog) != len(refLog) {
		t.Fatalf("speculative commit count %d, conservative %d", len(joinLog), len(refLog))
	}
	for i := range joinLog {
		if joinLog[i] != refLog[i] {
			t.Fatalf("commit log diverged at %d: %d vs %d", i, joinLog[i], refLog[i])
		}
	}
}
