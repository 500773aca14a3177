package db_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/sim"
)

// TestShelfHoldsOneModel runs the same model three times in a row: each run's
// servers start on the latency arrays and lock tables the last run's servers
// shelved and shelve them again when Run returns, so the shelf holds one
// store per server, no lock, and the same capacity after every run — the
// arrays did not grow again — not one more model's per run. Site 3 crashes
// mid-run and stays down, so its lock table still holds its in-flight
// transactions' locks at the end of the run: none may reach the shelf.
// After Run a server's samples read empty and its counters stay.
func TestShelfHoldsOneModel(t *testing.T) {
	cfg := core.Config{Sites: 3, Clients: 30, TotalTxns: 100, Seed: 5,
		Faults: faults.Config{Crashes: []faults.Crash{{Site: 3, At: 5 * sim.Second}}}}
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
		if held := m.Sites()[2].Server.Locks().HeldLocks(); held != 0 {
			t.Fatalf("the crashed site's lock table holds %d locks after Run", held)
		}
		committed := int64(0)
		for _, s := range m.Sites() {
			_, c, _, _ := s.Server.Totals()
			committed += c
			if s.Server.LatCommitted.N() != 0 || s.Server.CertLat.N() != 0 {
				t.Errorf("site %d: latency samples hold %d and %d values after Run", s.ID, s.Server.LatCommitted.N(), s.Server.CertLat.N())
			}
		}
		if committed != r.Committed || r.LatCommitted.N() != int(committed) {
			t.Fatalf("after Run: servers count %d commits, Results %d with %d latencies", committed, r.Committed, r.LatCommitted.N())
		}
		n, c, locks := db.ShelvedServers()
		if locks != 0 {
			t.Fatalf("the shelved lock tables hold %d locks", locks)
		}
		stores, caps = append(stores, n), append(caps, c)
	}
	for i := range stores {
		if stores[i] != cfg.Sites || caps[i] != caps[0] || caps[0] == 0 {
			t.Fatalf("after each run: %v stores holding %v latency values; want one per server and the same capacity every time", stores, caps)
		}
	}
}
