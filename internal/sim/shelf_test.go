package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestShelfHoldsOneModel runs the same model three times in a row: each run
// takes its streams off the shelf and gives them back when Run returns, so
// the shelf holds one model's sources after every run, not one more model's
// per run. The tests of the same name in tpcc and gcs hold the shelves of
// clients' transactions and stacks' free buffers to the same rule: only
// those packages' tests can read them.
func TestShelfHoldsOneModel(t *testing.T) {
	cfg := core.Config{Sites: 3, Clients: 30, TotalTxns: 100, Seed: 5}
	var after []int
	for range 3 {
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		after = append(after, sim.ShelvedSources())
	}
	if after[0] < cfg.Clients || after[1] != after[0] || after[2] != after[0] {
		t.Fatalf("shelved sources after each run: %v; want one model's (at least one per client) every time", after)
	}
}
