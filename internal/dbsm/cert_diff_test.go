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
