package replica_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
)

// TestShelfHoldsOneModel runs the same group-mode model three times in a
// row: each run's cross-group managers start on the records' arrays and
// transaction tables the last run's shelved and shelve them again, emptied,
// when Run returns, so the shelf holds one store per site and the same
// record capacity after every run, not one more model's per run. After Run
// a replica's XRecords read empty; the cross-group outcomes stay in the
// Results.
func TestShelfHoldsOneModel(t *testing.T) {
	cfg := core.Config{Groups: 3, Sites: 2, Clients: 60, TotalTxns: 600, Seed: 7}
	var stores, caps []int
	for range 3 {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.MultiGroupCommitted == 0 {
			t.Fatal("no cross-group transaction committed")
		}
		for _, s := range m.Sites() {
			if n := len(s.Replica.XRecords()); n != 0 {
				t.Fatalf("site %d: %d cross-group records after Run", s.ID, n)
			}
		}
		n, c, kept := replica.ShelvedXStores()
		if kept != 0 {
			t.Fatalf("the shelved stores keep %d records and transactions", kept)
		}
		stores, caps = append(stores, n), append(caps, c)
	}
	for i := range stores {
		if stores[i] != cfg.Groups*cfg.Sites || caps[i] != caps[0] || caps[0] == 0 {
			t.Fatalf("after each run: %v stores holding %v records' capacity; want one per site and the same capacity every time", stores, caps)
		}
	}
}
