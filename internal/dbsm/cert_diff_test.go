package dbsm

import (
	"math/rand"
	"testing"
)

// randCertStream produces a randomized certification stream over a small
// tuple universe (to force conflicts), mixing empty read- and write-sets,
// whole-table locks, and stale snapshots that exercise the pruned-window
// abort rule.
func randCertStream(rng *rand.Rand, n int, seqOf func() uint64) []*TxnCert {
	const tables = 8
	const rowsPerTable = 250
	stream := make([]*TxnCert, 0, n)
	for i := 0; i < n; i++ {
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
		// MaxHistory pruning retroactively aborts it.
		seq := seqOf()
		lag := uint64(rng.Intn(40))
		if rng.Intn(20) == 0 {
			lag = uint64(rng.Intn(2000))
		}
		lc := uint64(0)
		if seq > lag {
			lc = seq - lag
		}
		stream = append(stream, &TxnCert{
			TID:           uint64(i + 1),
			Site:          SiteID(rng.Intn(4) + 1),
			LastCommitted: lc,
			ReadSet:       mkSet(20, 4),
			WriteSet:      mkSet(12, 4),
			WriteBytes:    rng.Intn(512),
		})
	}
	return stream
}

// TestCertifierDifferential proves the inverted-index certifier emits the
// identical outcome stream (commit/abort and sequence numbers) as the
// reference scan certifier over randomized transaction streams, across
// unlimited and tight MaxHistory retention (the pruning paths).
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
			rng := rand.New(rand.NewSource(int64(7 + tc.maxHistory)))
			idx := NewCertifier()
			scan := NewScanCertifier()
			idx.MaxHistory = tc.maxHistory
			scan.MaxHistory = tc.maxHistory
			stream := randCertStream(rng, tc.txns, idx.Seq)
			commits, aborts := 0, 0
			for i, cert := range stream {
				if i == tc.txns/2 {
					// A state transfer mid-stream: the importer carries on
					// where the exporter stood, history bound included.
					st := idx.ExportState()
					idx = NewCertifier()
					idx.MaxHistory = tc.maxHistory
					idx.ImportState(st)
				}
				oi := idx.Certify(cert)
				os := scan.Certify(cert)
				if oi != os {
					t.Fatalf("txn %d: indexed=%+v scan=%+v (cert=%+v)", i, oi, os, cert)
				}
				if oi.Commit {
					commits++
				} else {
					aborts++
				}
				if idx.Seq() != scan.Seq() {
					t.Fatalf("txn %d: seq diverged: indexed=%d scan=%d", i, idx.Seq(), scan.Seq())
				}
				if idx.HistoryLen() != scan.HistoryLen() {
					t.Fatalf("txn %d: history diverged: indexed=%d scan=%d", i, idx.HistoryLen(), scan.HistoryLen())
				}
			}
			if commits == 0 || aborts == 0 {
				t.Fatalf("degenerate stream: %d commits, %d aborts", commits, aborts)
			}
		})
	}
}

// TestSpecCertifierIndexedDifferential drives the speculative wrapper over
// the indexed certifier with a permuted tentative order — forcing rollbacks,
// which exercise the index undo log — and checks that the final outcome
// stream matches conservative scan certification of the final stream.
func TestSpecCertifierIndexedDifferential(t *testing.T) {
	for _, maxHistory := range []int{0, 64} {
		rng := rand.New(rand.NewSource(int64(99 + maxHistory)))
		base := NewCertifier()
		base.MaxHistory = maxHistory
		spec := NewSpecCertifier(base)
		scan := NewScanCertifier()
		scan.MaxHistory = maxHistory

		stream := randCertStream(rng, 10000, scan.Seq)
		const window = 6
		for lo := 0; lo < len(stream); lo += window {
			hi := min(lo+window, len(stream))
			batch := stream[lo:hi]
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
// speculating certifier that carries on. Every final verdict must equal the
// scan reference's.
func TestSpecSlidingWindowDifferential(t *testing.T) {
	for _, maxHistory := range []int{0, 64} {
		rng := rand.New(rand.NewSource(int64(5 + maxHistory)))
		newSpec := func() (*Certifier, *SpecCertifier) {
			base := NewCertifier()
			base.MaxHistory = maxHistory
			return base, NewSpecCertifier(base)
		}
		base, spec := newSpec()
		scan := NewScanCertifier()
		scan.MaxHistory = maxHistory
		stream := randCertStream(rng, 10000, scan.Seq)

		const ahead = 5
		tentNext, shifts, matches, rollbacks := 0, 0, int64(0), int64(0)
		for fin, cert := range stream {
			if fin == len(stream)/2 {
				histLen, seq := spec.Finalized()
				st := base.ExportState()
				st.History, st.Seq = st.History[:histLen], seq
				matches, rollbacks = matches+spec.Matches, rollbacks+spec.Rollbacks
				base, spec = newSpec()
				base.ImportState(st)
				tentNext = fin // the importer has seen no tentative delivery
			}
			for tentNext < len(stream) && tentNext < fin+ahead {
				if tentNext+1 < len(stream) && tentNext >= fin && rng.Intn(40) == 0 {
					spec.Tentative(stream[tentNext+1])
					spec.Tentative(stream[tentNext])
					tentNext += 2
					continue
				}
				spec.Tentative(stream[tentNext])
				tentNext++
			}
			before := len(base.undo)
			out, rolled := spec.Final(cert)
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
		if matches < 1000 || rollbacks < 100 || shifts < 100 {
			t.Fatalf("maxHistory=%d: %d matches, %d rollbacks, %d front cuts with the queue non-empty: the run does not mix all three",
				maxHistory, matches, rollbacks, shifts)
		}
		if base.HistoryLen() != scan.HistoryLen() || base.pruned != scan.pruned {
			t.Fatalf("maxHistory=%d: history %d pruned %d, scan reference %d / %d",
				maxHistory, base.HistoryLen(), base.pruned, scan.HistoryLen(), scan.pruned)
		}
	}
}

// TestHistoryBoundAcrossBlocks drives a tightly bounded certifier through
// many times its bound — and several blocks of the history deque — and checks
// after every commit that exactly the newest MaxHistory entries are retained,
// that the pruning boundary follows, and that the index holds no cell of a
// dropped entry.
func TestHistoryBoundAcrossBlocks(t *testing.T) {
	const bound, commits = 64, 10*histBlock + 17
	c := NewCertifier()
	c.MaxHistory = bound
	for i := 1; i <= commits; i++ {
		row := MakeTupleID(3, uint64(i))
		out := c.Certify(&TxnCert{TID: uint64(i), LastCommitted: uint64(i - 1), ReadSet: NewItemSet(row), WriteSet: NewItemSet(row)})
		if !out.Commit || out.Seq != uint64(i) {
			t.Fatalf("commit %d: %+v", i, out)
		}
		retained, dropped := min(i, bound), max(0, i-bound)
		if c.HistoryLen() != retained || c.pruned != uint64(dropped) {
			t.Fatalf("after %d commits: history %d, pruned %d; want %d, %d", i, c.HistoryLen(), c.pruned, retained, dropped)
		}
		if len(c.lastWriter) != retained || c.lastWriter[MakeTupleID(3, uint64(dropped))] != 0 {
			t.Fatalf("after %d commits: %d index cells for %d retained entries", i, len(c.lastWriter), retained)
		}
		if oldest := c.hist.at(0); oldest.seq != uint64(dropped+1) || oldest.writeSet[0].Row() != oldest.seq {
			t.Fatalf("after %d commits: oldest retained entry is %+v", i, *oldest)
		}
		if len(c.hist.blocks) > 2 {
			t.Fatalf("after %d commits: %d blocks hold %d entries", i, len(c.hist.blocks), retained)
		}
	}
	if c.tableAny[3] != commits {
		t.Fatalf("table cell %d, want the last commit", c.tableAny[3])
	}
}
