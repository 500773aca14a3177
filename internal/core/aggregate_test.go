package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dbsm"
	"repro/internal/tpcc"
)

// forEach fans fn(0..n-1) over GOMAXPROCS goroutines. The equivalence test
// below runs dozens of independent models; each is single-threaded and
// deterministic, so parallel execution changes nothing but wall clock.
// (internal/expr has the same helper, but core tests cannot import it.)
func forEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		feed <- i
	}
	close(feed)
	wg.Wait()
}

// TestAggregateEquivalenceCI95 is the tentpole acceptance criterion: at 500
// clients the aggregate arrival-process tier must reproduce the
// individual-client workload within CI95 on every headline metric — tpmC,
// abort rate, mean and p95 latency — for both protocol variants. The two
// modes are different realizations of the same stochastic workload, so the
// pin is CI overlap over replicated runs, not per-seed equality:
//
//	|mean_individual − mean_aggregate| ≤ CI95_individual + CI95_aggregate
//
// which a systematic bias (like the warmup-pool bias the unfired pool
// exists to remove) reliably trips at these sample sizes.
func TestAggregateEquivalenceCI95(t *testing.T) {
	if testing.Short() {
		t.Skip("32 replicated 5000-txn runs; skipped in -short")
	}
	const (
		reps    = 8
		clients = 500
		txns    = 5000
	)
	for _, proto := range Protocols() {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			runs := make([]*Results, 2*reps) // [0,reps) individual, [reps,2reps) aggregate
			errs := make([]error, 2*reps)
			forEach(2*reps, func(i int) {
				cfg := Config{
					Sites:     3,
					Clients:   clients,
					TotalTxns: txns,
					Protocol:  proto,
					Seed:      4200 + int64(i%reps)*77,
				}
				if i >= reps {
					cfg.AggregateClients = 1
				}
				m, err := New(cfg)
				if err != nil {
					errs[i] = err
					return
				}
				runs[i], errs[i] = m.Run()
			})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			ind := AggregateRuns(runs[:reps])
			agg := AggregateRuns(runs[reps:])
			for _, col := range []struct {
				name string
				get  func(*Results) float64
			}{
				{"tpmC", func(r *Results) float64 { return r.TPM }},
				{"abort rate %", func(r *Results) float64 { return r.AbortRatePct }},
				{"mean latency ms", func(r *Results) float64 { return r.MeanLatencyMS }},
				{"p95 latency ms", func(r *Results) float64 { return r.P95LatencyMS }},
			} {
				a, b := ind.Stat(col.get), agg.Stat(col.get)
				diff := a.Mean - b.Mean
				if diff < 0 {
					diff = -diff
				}
				if tol := a.CI95 + b.CI95; diff > tol {
					t.Errorf("%s: individual %s vs aggregate %s — means %.2f apart, CI95 overlap allows %.2f",
						col.name, a, b, diff, tol)
				} else {
					t.Logf("%-16s individual %-14s aggregate %-14s |Δ| %.2f ≤ %.2f",
						col.name, a, b, diff, tol)
				}
			}
			// The aggregate runs must have carried the full budget through the
			// identical submission path, not a truncated or duplicated one.
			for i := reps; i < 2*reps; i++ {
				if runs[i].Issued != txns {
					t.Errorf("aggregate rep %d issued %d txns, want %d", i-reps, runs[i].Issued, txns)
				}
			}
		})
	}
}

// TestAggregateSameSeedSameResults extends the determinism guard to the
// aggregate tier across every client-placement mode — round-robin, partial
// replication (primary-site placement), and replication groups — since each
// mode uses a different dense-index→warehouse closure and RNG wiring.
func TestAggregateSameSeedSameResults(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"round-robin", Config{Sites: 3, Clients: 120, TotalTxns: 300, Seed: 7, AggregateClients: 1}},
		{"partial", Config{Sites: 3, Clients: 120, TotalTxns: 300, Seed: 7, AggregateClients: 1, ReplicationDegree: 2}},
		{"grouped", Config{Groups: 3, Sites: 2, Clients: 120, TotalTxns: 300, Seed: 7, AggregateClients: 1}},
		{"admission", Config{Sites: 3, Clients: 120, TotalTxns: 300, Seed: 7, AggregateClients: 1,
			Admission: DefaultAdmissionConfig()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() *Results {
				m, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if aggs, individual := tierCounts(m); aggs == 0 || individual != 0 {
					t.Fatalf("aggregate threshold not honored: %d aggregates, %d individual clients", aggs, individual)
				}
				r, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			a, b := run(), run()
			if a.Issued != b.Issued || a.Committed != b.Committed || a.Aborted != b.Aborted {
				t.Fatalf("counts diverge: %d/%d/%d vs %d/%d/%d",
					a.Issued, a.Committed, a.Aborted, b.Issued, b.Committed, b.Aborted)
			}
			if a.Duration != b.Duration || a.Events != b.Events {
				t.Fatalf("run shape diverges: duration %v/%v events %d/%d",
					a.Duration, b.Duration, a.Events, b.Events)
			}
			if a.TPM != b.TPM || a.AbortRatePct != b.AbortRatePct {
				t.Fatalf("headline metrics diverge: tpm %v/%v abort %v/%v",
					a.TPM, b.TPM, a.AbortRatePct, b.AbortRatePct)
			}
			if a.LatCommitted.N() != b.LatCommitted.N() || a.LatCommitted.Mean() != b.LatCommitted.Mean() {
				t.Fatalf("latency sample diverges: n=%d/%d mean=%v/%v",
					a.LatCommitted.N(), b.LatCommitted.N(), a.LatCommitted.Mean(), b.LatCommitted.Mean())
			}
			if !reflect.DeepEqual(a.Classes, b.Classes) {
				t.Fatalf("class breakdown diverges:\n%+v\nvs\n%+v", a.Classes, b.Classes)
			}
			if a.SafetyErr != nil {
				t.Fatalf("safety: %v", a.SafetyErr)
			}
		})
	}
}

// TestPlacementClients states client placement as properties of the one
// placement value both client tiers read: the per-site block descriptions
// partition the client indices (every client lands at exactly one site, the
// one siteOfClient names), and a site's dense index ↔ client index mapping
// round-trips in order — including a trailing partial warehouse and sites
// left without clients.
func TestPlacementClients(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
		unit int
	}{
		{"round-robin", Config{Sites: 3}, 1},
		{"primary-site", Config{Sites: 3, ReplicationDegree: 2}, tpcc.ClientsPerWarehouse},
		{"primary-site-6", Config{Sites: 6, ReplicationDegree: 2}, tpcc.ClientsPerWarehouse},
		{"group-homed", Config{Groups: 3, Sites: 2}, tpcc.ClientsPerWarehouse},
		{"group-homed-3x3", Config{Groups: 3, Sites: 3}, tpcc.ClientsPerWarehouse},
	}
	for _, sh := range shapes {
		for _, clients := range []int{1, 2, 9, 10, 11, 29, 30, 90, 127, 1000, 1003} {
			cfg := sh.cfg
			cfg.Clients = clients
			p := newPlacement(&cfg)
			if p.unit != sh.unit {
				t.Fatalf("%s: clients placed in units of %d, want %d", sh.name, p.unit, sh.unit)
			}
			seen := make([]int, clients) // how many sites claim each client
			for idx := range p.home {
				blocks := p.clientsAt(idx)
				pop := blocks.population()
				prev := -1
				for k := 0; k < pop; k++ {
					i := blocks.client(k)
					if i <= prev || i >= clients {
						t.Fatalf("%s/%d clients: site %d dense index %d maps to client %d (previous %d)",
							sh.name, clients, idx+1, k, i, prev)
					}
					prev = i
					seen[i]++
					if got := p.siteOfClient(i); got != idx {
						t.Fatalf("%s/%d clients: client %d is dense index %d of site %d, but siteOfClient says site %d",
							sh.name, clients, i, k, idx+1, got+1)
					}
				}
				// One past the population must leave the client range: the
				// population is maximal, not merely a prefix.
				if next := blocks.client(pop); next < clients {
					t.Fatalf("%s/%d clients: site %d population %d stops short of its client %d",
						sh.name, clients, idx+1, pop, next)
				}
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("%s/%d clients: client %d lands at %d sites, want exactly 1", sh.name, clients, i, n)
				}
			}
		}
	}
}

// TestPlacementStorage ties the stored-here predicate and the owner
// classifier to client placement: a warehouse's clients run at a site that
// stores it, each warehouse is stored at exactly span sites of one group, the
// owner is that group, and the catalog is stored everywhere and owned by
// nobody.
func TestPlacementStorage(t *testing.T) {
	for _, cfg := range []Config{
		{Sites: 3, Clients: 90},
		{Sites: 6, ReplicationDegree: 2, Clients: 120},
		{Sites: 5, ReplicationDegree: 4, Clients: 70},
		{Groups: 3, Sites: 2, Clients: 120},
		{Groups: 2, Sites: 5, Clients: 100},
	} {
		p := newPlacement(&cfg)
		stores := make([]func(dbsm.TupleID) bool, len(p.home))
		for idx := range stores {
			if stores[idx] = p.stores(idx); stores[idx] == nil {
				if !p.everywhere() {
					t.Fatalf("%+v: site %d stores everything under partial placement", cfg, idx+1)
				}
				stores[idx] = func(dbsm.TupleID) bool { return true }
			}
		}
		owner := p.owner()
		for wh := 0; wh < 4*len(p.home); wh++ {
			row := tpcc.StockRow(wh, 7)
			holders, group := 0, 0
			for idx := range stores {
				if !stores[idx](row) {
					continue
				}
				holders++
				if group != 0 && group != p.group(idx) {
					t.Fatalf("%+v: warehouse %d is stored in groups %d and %d", cfg, wh, group, p.group(idx))
				}
				group = p.group(idx)
			}
			if holders != p.span {
				t.Fatalf("%+v: warehouse %d is stored at %d sites, want %d", cfg, wh, holders, p.span)
			}
			if owner(row) != group {
				t.Fatalf("%+v: warehouse %d is owned by group %d but stored in group %d", cfg, wh, owner(row), group)
			}
			if !p.everywhere() && !stores[p.siteOfClient(wh*tpcc.ClientsPerWarehouse)](row) {
				t.Fatalf("%+v: warehouse %d's clients run at a site that does not store it", cfg, wh)
			}
		}
		item := tpcc.ItemRow(3)
		for idx := range stores {
			if !stores[idx](item) {
				t.Fatalf("%+v: site %d does not store the catalog", cfg, idx+1)
			}
		}
		if owner(item) != 0 {
			t.Fatalf("%+v: the catalog is owned by group %d, want 0", cfg, owner(item))
		}
	}
}

// tierCounts splits a model's client tier by kind.
func tierCounts(m *Model) (aggregates, individual int) {
	for _, c := range m.clients {
		if _, ok := c.(*tpcc.Aggregate); ok {
			aggregates++
		} else {
			individual++
		}
	}
	return
}

// TestAggregateThresholdGate pins the Config.AggregateClients contract:
// below the threshold the model builds individual clients, at or above it
// the aggregate tier, and zero disables aggregation entirely.
func TestAggregateThresholdGate(t *testing.T) {
	mk := func(clients, threshold int) *Model {
		m, err := New(Config{Sites: 3, Clients: clients, AggregateClients: threshold})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, c := range []struct {
		clients, threshold, aggs, individual int
		rule                                 string
	}{
		{90, 0, 0, 90, "threshold 0 must disable aggregation"},
		{90, 91, 0, 90, "below threshold must use individual clients"},
		{90, 90, 3, 0, "at threshold must use the aggregate tier"},
	} {
		if aggs, individual := tierCounts(mk(c.clients, c.threshold)); aggs != c.aggs || individual != c.individual {
			t.Fatalf("%s: aggs=%d clients=%d", c.rule, aggs, individual)
		}
	}
}
