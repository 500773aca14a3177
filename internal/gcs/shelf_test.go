package gcs_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gcs"
)

// TestShelfHoldsOneModel runs the same model three times in a row: each run's
// stacks start with the free buffers the last run's stacks shelved and shelve
// theirs when Run returns, so the shelf holds one store per stack and the
// same buffers after every run, not one more model's per run.
func TestShelfHoldsOneModel(t *testing.T) {
	t.Cleanup(gcs.DropShelvedBuffers)
	cfg := core.Config{Sites: 3, Clients: 30, TotalTxns: 100, Seed: 5}
	var stores, buffers []int
	for range 3 {
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		s, b := gcs.ShelvedBuffers()
		stores, buffers = append(stores, s), append(buffers, b)
	}
	for i := range stores {
		if stores[i] != cfg.Sites || buffers[i] != buffers[0] || buffers[0] == 0 {
			t.Fatalf("after each run: %v stores holding %v buffers; want one per stack and the same buffers every time", stores, buffers)
		}
	}
}
