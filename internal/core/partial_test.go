package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/tpcc"
)

// TestPlacementDegreeWindow pins degree-k placement on concrete cases (the
// general properties are in TestPlacementStorage): a warehouse is stored at
// its primary site and the next k-1, wrapping around; a degree of 0 or >=
// Sites is full replication, which carries no predicate at all.
func TestPlacementDegreeWindow(t *testing.T) {
	p := newPlacement(&Config{Sites: 6, ReplicationDegree: 2})
	at := func(wh, idx int) bool { return p.stores(idx)(tpcc.WarehouseRow(wh)) }
	// 6 sites, degree 2: warehouse 0 at sites 0,1; warehouse 5 at 5,0.
	if !at(0, 0) || !at(0, 1) || at(0, 2) {
		t.Fatal("warehouse 0 placement wrong")
	}
	if !at(5, 5) || !at(5, 0) || at(5, 3) {
		t.Fatal("wrap-around placement wrong")
	}
	if !at(11, 5) || !at(11, 0) || at(11, 1) {
		t.Fatal("second-round warehouse must reuse its residue's window")
	}
	for _, degree := range []int{0, 3, 7} {
		full := newPlacement(&Config{Sites: 3, ReplicationDegree: degree})
		if full.stores(0) != nil {
			t.Fatalf("degree %d of 3 sites must be full replication", degree)
		}
	}
}

func TestWarehouseOfInserts(t *testing.T) {
	g := tpcc.NewGenerator(3, 20, tpcc.DefaultCalibration(), newTestRNG())
	for i := 0; i < 500; i++ {
		txn := g.Next(i % 200)
		home := (i % 200) / tpcc.ClientsPerWarehouse
		for _, w := range txn.WriteSet {
			wh, ok := tpcc.WarehouseOf(w)
			if !ok {
				t.Fatalf("write without warehouse: table %d", w.Table())
			}
			// Payment may hit a remote warehouse; all writes must
			// still resolve to SOME valid warehouse.
			if wh < 0 || wh >= 20 {
				t.Fatalf("warehouse out of range: %d (home %d)", wh, home)
			}
		}
	}
}

// Partial replication: disk load per site drops with the replication degree
// while the safety property is untouched.
func TestPartialReplicationReducesDiskLoad(t *testing.T) {
	full := run(t, Config{Sites: 6, Clients: 300, TotalTxns: 1500, Seed: 51})
	partial := run(t, Config{Sites: 6, Clients: 300, TotalTxns: 1500, Seed: 51, ReplicationDegree: 2})
	if full.SafetyErr != nil || partial.SafetyErr != nil {
		t.Fatalf("safety: %v / %v", full.SafetyErr, partial.SafetyErr)
	}
	if partial.Committed < full.Committed*9/10 {
		t.Fatalf("partial replication lost throughput: %d vs %d",
			partial.Committed, full.Committed)
	}
	// Under full replication every site writes every row: per-site disk
	// usage should drop to roughly degree/sites (2/6 = 1/3) plus the
	// commit records. Allow a generous band.
	ratio := partial.DiskUtilPct / full.DiskUtilPct
	if ratio > 0.6 {
		t.Fatalf("disk usage ratio = %.2f, want ~1/3 (partial %0.1f%%, full %0.1f%%)",
			ratio, partial.DiskUtilPct, full.DiskUtilPct)
	}
	if ratio < 0.15 {
		t.Fatalf("disk usage ratio = %.2f suspiciously low", ratio)
	}
}

// All sites must still agree on the committed sequence even though most
// apply only fragments of each write-set.
func TestPartialReplicationSafetyUnderLoad(t *testing.T) {
	r := run(t, Config{Sites: 3, Clients: 120, TotalTxns: 800, Seed: 52, ReplicationDegree: 1})
	if r.SafetyErr != nil {
		t.Fatalf("safety: %v", r.SafetyErr)
	}
	if r.Inconsistencies != 0 {
		t.Fatalf("inconsistencies: %d", r.Inconsistencies)
	}
}

func newTestRNG() *sim.RNG { return sim.NewRNG(7) }
