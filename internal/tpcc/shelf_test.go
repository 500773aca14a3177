package tpcc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tpcc"
)

// TestShelfHoldsOneModel runs the same model three times in a row: each run's
// clients build into the transactions the last run's clients shelved and
// shelve them again when Run returns, so the shelf holds one model's
// transactions after every run — at most one per client — not one more
// model's per run.
func TestShelfHoldsOneModel(t *testing.T) {
	cfg := core.Config{Sites: 3, Clients: 30, TotalTxns: 100, Seed: 5}
	var after []int
	for range 3 {
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		after = append(after, tpcc.ShelvedTxns())
	}
	if after[0] == 0 || after[0] > cfg.Clients || after[1] != after[0] || after[2] != after[0] {
		t.Fatalf("shelved transactions after each run: %v; want one model's (one per client that issued) every time", after)
	}
}
