package dbsm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// testWindows are the index generation sizes the differential tests run at.
// The tiny ones rotate on nearly every commit and send most snapshots down
// the history-scan path; at the default only randCertStream's occasional
// 2 000-commit lag does.
var testWindows = []uint64{1, 2, 3, 7, 64, indexWindow}

// newWindowed returns an indexed certifier whose generations are window
// commits long.
func newWindowed(window uint64) *Certifier {
	c := NewCertifier()
	c.window = window
	return c
}

// forWindows runs f as one subtest per entry of testWindows.
func forWindows(t *testing.T, f func(t *testing.T, window uint64)) {
	for _, w := range testWindows {
		t.Run(fmt.Sprintf("window=%d", w), func(t *testing.T) { f(t, w) })
	}
}

// indexRule is what the index rule says of t, worked out from the scan
// reference's history before t is certified there: whether the pruning rule
// refuses it, and the 1-based position of the first read that a write
// committed after the snapshot conflicts with (0 for none). Certify charges
// nothing for a refusal, that position for a conflict and |RS|+|WS| for a
// commit; CheckOnly charges |RS| for a pass.
func indexRule(ref *scanCertifier, t *TxnCert) (refused bool, pos int) {
	if ref.refused(t) {
		return true, 0
	}
	from := ref.hist.firstAfter(t.LastCommitted)
	for j := range t.ReadSet {
		for i := from; i < ref.hist.n; i++ {
			if ref.hist.at(i).writeSet.Intersects(t.ReadSet[j : j+1]) {
				return false, j + 1
			}
		}
	}
	return false, 0
}

// certStream is a randomized certification stream over a small tuple
// universe (to force conflicts), mixing empty read- and write-sets,
// whole-table locks, and stale snapshots that exercise the history-scan path
// and the pruned-window abort rule. Transaction i is drawn the first time
// at(i) asks for it, so its snapshot trails the sequence seqOf reports then.
//
// A stream with edges set also aims at the index's own boundaries: one
// snapshot in six is one of the values edges returns when it is drawn (those
// not past the sequence), and one read-set in four gains a read of a table
// no commit ever writes. Those choices come from a second source, so the
// rest of the stream draws what it would without them.
type certStream struct {
	rng   *rand.Rand
	n     int
	seqOf func() uint64
	certs []*TxnCert
	edges func() []uint64
	aim   *rand.Rand // the edge choices
	// edgeSnaps counts the snapshots taken from edges.
	edgeSnaps int
}

// indexEdges are the snapshots at the edges of c's index: the two commits
// before the current generation starts, its start, and the horizon.
func indexEdges(c func() *Certifier) func() []uint64 {
	return func() []uint64 {
		g := c().genStart
		return []uint64{g - 2, g - 1, g, c().horizon}
	}
}

func randCertStream(rng *rand.Rand, n int, seqOf func() uint64) *certStream {
	return &certStream{rng: rng, n: n, seqOf: seqOf}
}

// at returns transaction i, drawing every one up to it not drawn yet.
func (s *certStream) at(i int) *TxnCert {
	const tables = 8
	const rowsPerTable = 250
	rng := s.rng
	for len(s.certs) <= i {
		mkSet := func(maxLen int, lockPct int) ItemSet {
			if rng.Intn(10) == 0 {
				return nil // empty set
			}
			ids := make([]TupleID, rng.Intn(maxLen)+1)
			for j := range ids {
				tbl := uint16(rng.Intn(tables) + 1)
				if rng.Intn(100) < lockPct {
					ids[j] = MakeTableLock(tbl)
				} else {
					ids[j] = MakeTupleID(tbl, uint64(rng.Intn(rowsPerTable)))
				}
			}
			return NewItemSet(ids...)
		}
		// Snapshot lag: usually recent, occasionally far in the past so
		// that only the history knows its conflicts, or MaxHistory pruning
		// retroactively aborts it.
		seq := s.seqOf()
		lag := uint64(rng.Intn(40))
		if rng.Intn(20) == 0 {
			lag = uint64(rng.Intn(2000))
		}
		lc := uint64(0)
		if seq > lag {
			lc = seq - lag
		}
		tc := &TxnCert{
			TID:           uint64(len(s.certs) + 1),
			Site:          SiteID(rng.Intn(4) + 1),
			LastCommitted: lc,
			ReadSet:       mkSet(20, 4),
			WriteSet:      mkSet(12, 4),
			WriteBytes:    rng.Intn(512),
		}
		if s.edges != nil {
			if s.aim == nil {
				s.aim = rand.New(rand.NewSource(1))
			}
			if s.aim.Intn(6) == 0 {
				e := s.edges()
				if x := e[s.aim.Intn(len(e))]; x <= seq {
					tc.LastCommitted = x
					s.edgeSnaps++
				}
			}
			if s.aim.Intn(4) == 0 {
				unwritten := MakeTupleID(tables+1, uint64(s.aim.Intn(rowsPerTable)))
				tc.ReadSet = NewItemSet(append(slices.Clone(tc.ReadSet), unwritten)...)
			}
		}
		s.certs = append(s.certs, tc)
	}
	return s.certs[i]
}

// TestCertifierDifferential proves the inverted-index certifier emits the
// identical outcome stream (commit/abort and sequence numbers) as the
// reference scan certifier over randomized transaction streams, across
// unlimited and tight MaxHistory retention (the pruning paths) and across
// index windows, and that every certification charges what the index rule
// says whether the index or the history answered it. Each transaction is
// first put to CheckOnly, the cross-group vote, on both; one in fifty is then
// installed by ForceCommit, the cross-group decide, instead of certified.
// The stream aims snapshots at the index's edges (genStart-2, genStart-1,
// genStart, the horizon) and reads at a table nothing writes; whole-table
// locks are read and written throughout.
func TestCertifierDifferential(t *testing.T) {
	for _, tc := range []struct {
		name       string
		maxHistory int
		txns       int
	}{
		{"unbounded", 0, 12000},
		{"prune-tight", 64, 12000},
		{"prune-mid", 512, 12000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forWindows(t, func(t *testing.T, window uint64) {
				certifierDifferential(t, tc.maxHistory, tc.txns, window)
			})
		})
	}
}

func certifierDifferential(t *testing.T, maxHistory, txns int, window uint64) {
	rng := rand.New(rand.NewSource(int64(7 + maxHistory)))
	charged := 0
	newIdx := func() *Certifier {
		c := newWindowed(window)
		c.MaxHistory = maxHistory
		c.Charge = func(items int) { charged += items }
		return c
	}
	idx := newIdx()
	scan := &scanCertifier{MaxHistory: maxHistory}
	stream := randCertStream(rng, txns, scan.Seq)
	stream.edges = indexEdges(func() *Certifier { return idx })
	commits, aborts := 0, 0
	for i := range txns {
		cert := stream.at(i)
		if i == txns/2 {
			// A state transfer mid-stream: the importer carries on where the
			// exporter stood, history bound included.
			st := idx.ExportState()
			stale := idx.StaleAnswers()
			idx = newIdx()
			idx.ImportState(st)
			idx.staleAnswers = stale
		}
		refused, pos := indexRule(scan, cert)
		wantCheck, wantCertify := 0, len(cert.ReadSet)+len(cert.WriteSet)
		switch {
		case refused:
			wantCertify = 0
		case pos > 0:
			wantCheck, wantCertify = pos, pos
		default:
			wantCheck = len(cert.ReadSet)
		}
		charged = 0
		if ok, okScan := idx.CheckOnly(cert), scan.CheckOnly(cert); ok != okScan || charged != wantCheck {
			t.Fatalf("txn %d: CheckOnly indexed=%v scan=%v, charged %d, the index rule says %d", i, ok, okScan, charged, wantCheck)
		}
		charged = 0
		var oi, os Outcome
		if rng.Intn(50) == 0 {
			oi, os = idx.ForceCommit(cert), scan.ForceCommit(cert)
			wantCertify = len(cert.WriteSet)
		} else {
			oi, os = idx.Certify(cert), scan.Certify(cert)
		}
		if oi != os {
			t.Fatalf("txn %d: indexed=%+v scan=%+v (cert=%+v)", i, oi, os, cert)
		}
		if charged != wantCertify {
			t.Fatalf("txn %d: charged %d, the index rule says %d (cert=%+v)", i, charged, wantCertify, cert)
		}
		if oi.Commit {
			commits++
		} else {
			aborts++
		}
		if idx.Seq() != scan.Seq() {
			t.Fatalf("txn %d: seq diverged: indexed=%d scan=%d", i, idx.Seq(), scan.Seq())
		}
		if idx.HistoryLen() != scan.hist.n {
			t.Fatalf("txn %d: history diverged: indexed=%d scan=%d", i, idx.HistoryLen(), scan.hist.n)
		}
	}
	if commits == 0 || aborts == 0 || stream.edgeSnaps < txns/20 {
		t.Fatalf("degenerate stream: %d commits, %d aborts, %d snapshots at the index's edges", commits, aborts, stream.edgeSnaps)
	}
	// The pruning rule refuses a snapshot older than MaxHistory entries
	// before the index could miss it, so only a window well under the bound
	// leaves stale snapshots to the history.
	if (maxHistory == 0 || 2*window < uint64(maxHistory)) && idx.StaleAnswers() == 0 {
		t.Fatal("no snapshot was answered from the history: the scan path went untested")
	}
	t.Logf("%d of %d certifications answered from the history", idx.StaleAnswers(), txns)
}

// TestSpecCertifierIndexedDifferential drives the speculative wrapper over
// the indexed certifier with a permuted tentative order — forcing rollbacks,
// which exercise the index undo log — and checks that the final outcome
// stream matches conservative scan certification of the final stream.
func TestSpecCertifierIndexedDifferential(t *testing.T) {
	forWindows(t, specCertifierIndexedDifferential)
}

func specCertifierIndexedDifferential(t *testing.T, window uint64) {
	for _, maxHistory := range []int{0, 64} {
		rng := rand.New(rand.NewSource(int64(99 + maxHistory)))
		base := newWindowed(window)
		base.MaxHistory = maxHistory
		spec := NewSpecCertifier(base)
		scan := &scanCertifier{MaxHistory: maxHistory}

		stream := randCertStream(rng, 10000, scan.Seq)
		const batchLen = 6
		for lo := 0; lo < stream.n; lo += batchLen {
			hi := min(lo+batchLen, stream.n)
			stream.at(hi - 1)
			batch := stream.certs[lo:hi]
			// Tentative order: a random permutation of the batch.
			perm := rng.Perm(len(batch))
			for _, p := range perm {
				spec.Tentative(batch[p])
			}
			// Final order: the original stream order.
			for i, cert := range batch {
				out, _ := spec.Final(cert)
				want := scan.Certify(cert)
				if out != want {
					t.Fatalf("maxHistory=%d txn %d: spec(indexed)=%+v scan=%+v",
						maxHistory, lo+i, out, want)
				}
			}
		}
		if spec.Rollbacks == 0 {
			t.Fatal("permuted stream produced no rollbacks; test is vacuous")
		}
	}
}

// TestSpecSlidingWindowDifferential keeps the speculative queue from ever
// draining: tentative deliveries run a few messages ahead of the final order
// and now and then arrive swapped, so in one run the undo stack is cut at the
// front (a matching Final pops the head's records while later ones stay), at
// the back (a rollback unwinds the suffix) and compacted in between, while a
// small MaxHistory makes the history deque wrap and prune under outstanding
// tentatives. Half-way, the finalized prefix is state-transferred into a new
// speculating certifier that carries on, on the storage of the old one,
// released with tentative records on its undo stack. Snapshots aim at the
// index's edges and reads at a table nothing writes, as in
// TestCertifierDifferential, and at the small windows rollbacks cross
// generation changes (counted). Every final verdict must equal the scan
// reference's.
func TestSpecSlidingWindowDifferential(t *testing.T) {
	forWindows(t, specSlidingWindowDifferential)
}

func specSlidingWindowDifferential(t *testing.T, window uint64) {
	for _, maxHistory := range []int{0, 64} {
		rng := rand.New(rand.NewSource(int64(5 + maxHistory)))
		newSpec := func() (*Certifier, *SpecCertifier) {
			base := newWindowed(window)
			base.MaxHistory = maxHistory
			return base, NewSpecCertifier(base)
		}
		base, spec := newSpec()
		scan := &scanCertifier{MaxHistory: maxHistory}
		stream := randCertStream(rng, 10000, scan.Seq)
		stream.edges = indexEdges(func() *Certifier { return base })

		const ahead = 5
		tentNext, shifts, matches, rollbacks := 0, 0, int64(0), int64(0)
		flips := 0 // rollbacks that undid a generation change
		for fin := range stream.n {
			cert := stream.at(fin)
			if fin == stream.n/2 {
				histLen, seq := spec.Finalized()
				st := base.ExportState()
				st.History, st.Seq = st.History[:histLen], seq
				matches, rollbacks = matches+spec.Matches, rollbacks+spec.Rollbacks
				if len(base.undo) == 0 {
					t.Fatalf("maxHistory=%d: the undo stack is empty at the hand-over", maxHistory)
				}
				block := base.hist.blocks[0]
				base.Release()
				base, spec = newSpec()
				base.ImportState(st)
				if base.hist.blocks[0] != block {
					t.Fatalf("maxHistory=%d: the new certifier does not run on the released one's storage", maxHistory)
				}
				tentNext = fin // the importer has seen no tentative delivery
			}
			for tentNext < stream.n && tentNext < fin+ahead {
				if tentNext+1 < stream.n && tentNext >= fin && rng.Intn(40) == 0 {
					spec.Tentative(stream.at(tentNext + 1))
					spec.Tentative(stream.at(tentNext))
					tentNext += 2
					continue
				}
				spec.Tentative(stream.at(tentNext))
				tentNext++
			}
			before, gen := len(base.undo), base.genStart
			out, rolled := spec.Final(cert)
			if rolled != nil && base.genStart == gen && base.seq < gen {
				flips++
			}
			if spec.Pending() > 0 {
				// Dead records below the head's mark never outnumber the
				// live ones above it: the stack is bounded by the suffix.
				dead := spec.tent[spec.head].undoLen
				if dead != 0 && dead >= len(base.undo)-dead {
					t.Fatalf("maxHistory=%d txn %d: %d of %d undo records are dead", maxHistory, fin, dead, len(base.undo))
				}
				if rolled == nil && len(base.undo) < before {
					shifts++
				}
			}
			for _, r := range rolled {
				spec.Tentative(r) // re-speculate as the replica does
			}
			if want := scan.Certify(cert); out != want {
				t.Fatalf("maxHistory=%d txn %d: spec=%+v scan=%+v", maxHistory, fin, out, want)
			}
		}
		matches, rollbacks = matches+spec.Matches, rollbacks+spec.Rollbacks
		if matches < 1000 || rollbacks < 100 || shifts < 100 || stream.edgeSnaps < stream.n/20 {
			t.Fatalf("maxHistory=%d: %d matches, %d rollbacks, %d front cuts with the queue non-empty, %d snapshots at the index's edges: the run does not mix them all",
				maxHistory, matches, rollbacks, shifts, stream.edgeSnaps)
		}
		if window <= 7 && flips == 0 {
			t.Fatalf("maxHistory=%d: no rollback crossed a generation change", maxHistory)
		}
		if base.HistoryLen() != scan.hist.n || base.pruned != scan.pruned {
			t.Fatalf("maxHistory=%d: history %d pruned %d, scan reference %d / %d",
				maxHistory, base.HistoryLen(), base.pruned, scan.hist.n, scan.pruned)
		}
	}
}

// TestReleasedCertifier: a released certifier keeps its counters, refuses
// to certify, and leaves its storage to the next NewCertifier emptied — no
// index cell, history entry or undo record of the old run in it.
func TestReleasedCertifier(t *testing.T) {
	c := newWindowed(64) // both generations hold cells
	spec := NewSpecCertifier(c)
	row := MakeTupleID(4, 1)
	for i := uint64(1); i <= 3*histBlock; i++ {
		ws := NewItemSet(row, MakeTupleID(5, i), MakeTableLock(6))
		spec.Tentative(&TxnCert{TID: i, LastCommitted: i - 1, ReadSet: NewItemSet(row), WriteSet: ws})
	}
	if c.older.Len() == 0 || tableCell(c.tableLock, 6) == 0 {
		t.Fatal("the run filled neither the older generation nor a table-lock cell")
	}
	seq := c.Seq()
	c.Release()
	c.Release()
	if c.Seq() != seq {
		t.Fatalf("Seq %d after release, want %d", c.Seq(), seq)
	}
	tc := &TxnCert{TID: 9, ReadSet: NewItemSet(row)}
	for name, use := range map[string]func(){
		"Certify":   func() { c.Certify(tc) },
		"CheckOnly": func() { c.CheckOnly(tc) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released certifier did not panic", name)
				}
			}()
			use()
		}()
	}
	next := NewCertifier()
	if len(next.hist.blocks) != 3 || len(next.hist.items.blocks) != 1 || cap(next.undo) == 0 {
		t.Fatalf("next certifier: %d history blocks, %d arena blocks, undo capacity %d; want the released 3, 1 and some",
			len(next.hist.blocks), len(next.hist.items.blocks), cap(next.undo))
	}
	if a := next.hist.items; a.first != 0 || a.fill != 0 {
		t.Fatalf("next certifier's arena starts at block %d, position %d", a.first, a.fill)
	}
	if cells, _ := next.IndexCells(); cells != 0 || len(next.tableAny) != 0 || len(next.tableLock) != 0 || next.HistoryLen() != 0 || len(next.undo) != 0 {
		t.Fatalf("next certifier starts with %d cells, %d table cells, %d entries, %d undo records", cells, len(next.tableAny)+len(next.tableLock), next.HistoryLen(), len(next.undo))
	}
	for _, b := range next.hist.blocks {
		for _, e := range b {
			if e.seq != 0 || e.writeSet != nil {
				t.Fatalf("a shelved history block still holds commit %d", e.seq)
			}
		}
	}
	if next.Charge != nil || next.Veto != nil || next.MaxHistory != 0 || next.Seq() != 0 {
		t.Fatal("next certifier carries the released one's settings")
	}
}

// TestHistoryArenaDifferential drives a history through pushes from one
// scratch set that is refilled for every push, as a decoded record is, with
// drops from the front and truncations from the back interleaved, in phases
// that grow it past four arena blocks and shrink it again. Some sets fill a
// whole block and some are larger than one. After every drop and truncation,
// and every sixteenth push, the history must hold exactly the Clone of every
// set still retained (the newest after every push), and after a drop the
// arena's front block must be the one the oldest retained set sits in.
func TestHistoryArenaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type kept struct {
		seq uint64
		ws  ItemSet
	}
	var (
		h       history
		ref     []kept
		scratch ItemSet
		seq     uint64
		peak    int
	)
	check := func(step int, what string) {
		t.Helper()
		if h.n != len(ref) {
			t.Fatalf("step %d (%s): %d entries, want %d", step, what, h.n, len(ref))
		}
		full := step%16 == 0 || what != "push"
		for i := range ref {
			if !full && i < len(ref)-1 {
				continue
			}
			if e := h.at(i); e.seq != ref[i].seq || !slices.Equal(e.writeSet, ref[i].ws) {
				t.Fatalf("step %d (%s): entry %d of %d is seq %d %v, want seq %d %v",
					step, what, i, len(ref), e.seq, e.writeSet, ref[i].seq, ref[i].ws)
			}
		}
	}
	for step := range 20000 {
		grow := (step/1500)%2 == 0
		switch r := rng.Intn(10); {
		case r < 3 || (grow && r < 8) || len(ref) == 0:
			n := 1 + rng.Intn(300)
			switch rng.Intn(60) {
			case 0:
				n = arenaBlock
			case 1:
				n = arenaBlock + 1 + rng.Intn(50)
			}
			scratch = scratch[:0]
			for j := range n {
				scratch = append(scratch, MakeTupleID(uint16(j%5), uint64(step)<<16|uint64(j)))
			}
			seq++
			h.push(seq, scratch)
			ref = append(ref, kept{seq, scratch.Clone()})
			sim.Poison(scratch) // the record's next decode
			check(step, "push")
		case r < 6:
			k := 1 + rng.Intn(min(len(ref), 6))
			h.dropFront(k)
			ref = ref[k:]
			check(step, "dropFront")
			if h.n > 0 && len(h.at(0).writeSet) <= arenaBlock {
				if b := (h.at(0).end - 1) / arenaBlock; b != h.items.first {
					t.Fatalf("step %d: the oldest set sits in block %d, the arena starts at block %d", step, b, h.items.first)
				}
			}
		default:
			n := len(ref) - rng.Intn(min(len(ref), 6)+1)
			h.truncate(n)
			ref = ref[:n]
			check(step, "truncate")
		}
		peak = max(peak, h.items.fill/arenaBlock-h.items.first+1)
	}
	if peak <= 4 {
		t.Fatalf("the history never spanned more than %d arena blocks", peak)
	}
	t.Logf("at most %d arena blocks in use, %d allocated", peak, len(h.items.blocks))
}

// TestHistoryBoundAcrossBlocks drives a certifier, unbounded and tightly
// bounded, through many times its bound — and several blocks of the history
// deque — and checks after every commit that exactly the newest MaxHistory
// entries are retained and the pruning boundary follows, and that the index
// never holds more cells than the distinct tuples of the last two windows
// (each commit here writes a tuple of its own), none older than its horizon.
func TestHistoryBoundAcrossBlocks(t *testing.T) {
	const commits = 10*histBlock + 17
	for _, bound := range []int{0, 64} {
		for _, window := range []uint64{64, indexWindow} {
			c := newWindowed(window)
			c.MaxHistory = bound
			for i := 1; i <= commits; i++ {
				row := MakeTupleID(3, uint64(i))
				out := c.Certify(&TxnCert{TID: uint64(i), LastCommitted: uint64(i - 1), ReadSet: NewItemSet(row), WriteSet: NewItemSet(row)})
				if !out.Commit || out.Seq != uint64(i) {
					t.Fatalf("bound %d window %d, commit %d: %+v", bound, window, i, out)
				}
				retained, dropped := i, 0
				if bound > 0 {
					retained, dropped = min(i, bound), max(0, i-bound)
				}
				if c.HistoryLen() != retained || c.pruned != uint64(dropped) {
					t.Fatalf("bound %d window %d, after %d commits: history %d, pruned %d; want %d, %d",
						bound, window, i, c.HistoryLen(), c.pruned, retained, dropped)
				}
				cells, horizon := c.IndexCells()
				if cells > min(i, 2*int(window)) || (horizon > 1 && c.lastWrite(MakeTupleID(3, horizon-1)) != 0) {
					t.Fatalf("bound %d window %d, after %d commits: %d index cells, horizon %d", bound, window, i, cells, horizon)
				}
				if oldest := c.hist.at(0); oldest.seq != uint64(dropped+1) || oldest.writeSet[0].Row() != oldest.seq {
					t.Fatalf("bound %d window %d, after %d commits: oldest retained entry is %+v", bound, window, i, *oldest)
				}
				if bound > 0 && len(c.hist.blocks) > 2 {
					t.Fatalf("bound %d window %d, after %d commits: %d blocks hold %d entries", bound, window, i, len(c.hist.blocks), retained)
				}
			}
			if _, horizon := c.IndexCells(); horizon == 0 {
				t.Fatalf("bound %d window %d: the index never rotated", bound, window)
			}
			if c.tableAny[3] != commits {
				t.Fatalf("table cell %d, want the last commit", c.tableAny[3])
			}
		}
	}
}

// TestRollbackPastRotation is the directed case for a generation change
// inside the tentative suffix: a tentative commit gives a tuple with no cell
// its first one, a later tentative commit moves that cell to the older
// generation, and a mismatching final rolls the whole suffix back. The cell
// must go from both generations; left in the older one, it makes a reader
// whose snapshot follows the final abort on a write that never happened.
func TestRollbackPastRotation(t *testing.T) {
	const window = 4
	base := newWindowed(window)
	spec := NewSpecCertifier(base)
	ref := &scanCertifier{}
	final := func(tc *TxnCert) (Outcome, []*TxnCert) {
		t.Helper()
		out, rolled := spec.Final(tc)
		if want := ref.Certify(tc); out != want {
			t.Fatalf("txn %d: spec %+v, scan %+v", tc.TID, out, want)
		}
		return out, rolled
	}
	k := MakeTupleID(2, 7)
	w1 := specTxn(1, 0, nil, []TupleID{MakeTupleID(1, 1)})
	spec.Tentative(w1)
	final(w1)                                               // seq 1
	t0 := specTxn(10, 1, nil, []TupleID{MakeTupleID(1, 2)}) // seq 2
	t1 := specTxn(11, 1, nil, []TupleID{k})                 // seq 3: k had no cell
	t2 := specTxn(12, 1, nil, []TupleID{MakeTupleID(1, 3)}) // seq 4: the generation changes
	t3 := specTxn(13, 1, nil, []TupleID{MakeTupleID(1, 4)}) // seq 5
	for _, tc := range []*TxnCert{t0, t1, t2, t3} {
		if !spec.Tentative(tc).Commit {
			t.Fatalf("txn %d: tentative abort", tc.TID)
		}
	}
	if base.genStart != 4 || base.older.Get(k) != 3 {
		t.Fatalf("no generation change inside the suffix: genStart %d, older[k] %d", base.genStart, base.older.Get(k))
	}
	f := specTxn(20, 1, nil, []TupleID{MakeTupleID(1, 9)})
	if _, rolled := final(f); len(rolled) != 4 {
		t.Fatalf("mismatching final rolled back %d tentatives, want 4", len(rolled))
	}
	if v := base.lastWrite(k); v != 0 {
		t.Fatalf("rolled-back write still indexed at seq %d", v)
	}
	r := specTxn(21, 2, []TupleID{k}, nil)
	spec.Tentative(r)
	if out, _ := final(r); !out.Commit {
		t.Fatal("reader aborted on a rolled-back write")
	}
}
