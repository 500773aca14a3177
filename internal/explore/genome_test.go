package explore

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/sim"
)

// TestRepairProducesValidConfigs fuzzes the genome layer: any gene list —
// random genes, heavy mutation, splices — must repair to a fault
// configuration the model constructor accepts, in both topologies.
func TestRepairProducesValidConfigs(t *testing.T) {
	cases := []struct {
		name  string
		space space
		base  core.Config
	}{
		{"classic", spaceOf(campaign.Params{Sites: 3, Horizon: 15 * sim.Second, Rejoin: true}),
			core.Config{Sites: 3, Clients: 30, TotalTxns: 50}},
		{"grouped", spaceOf(campaign.Params{Sites: 3, Groups: 2, Horizon: 15 * sim.Second}),
			core.Config{Sites: 3, Groups: 2, Clients: 30, TotalTxns: 50}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := sim.NewRNG(7).Fork("fuzz")
			genes := []Gene{}
			for i := 0; i < 60; i++ {
				switch g.Intn(3) {
				case 0: // fresh random genome
					genes = genes[:0]
					for n := g.Intn(8); len(genes) <= n; {
						genes = append(genes, tc.space.randomGene(g))
					}
					genes = tc.space.repair(genes)
				case 1:
					genes = tc.space.mutate(g, genes)
				case 2:
					other := []Gene{tc.space.randomGene(g), tc.space.randomGene(g)}
					genes = tc.space.splice(g, genes, other)
				}
				cfg := tc.base
				cfg.Seed = int64(i + 1)
				cfg.Faults = tc.space.toFaults(genes)
				if _, err := core.New(cfg); err != nil {
					t.Fatalf("iteration %d: repaired genome rejected: %v\ngenes: %+v", i, err, genes)
				}
			}
		})
	}
}

// TestRepairIdempotent checks repair is a normal form: repairing a repaired
// genome changes nothing, so the shrinker's single-gene removals stay exact.
func TestRepairIdempotent(t *testing.T) {
	space := spaceOf(campaign.Params{Sites: 3, Groups: 2, Horizon: 15 * sim.Second})
	g := sim.NewRNG(11).Fork("idem")
	for i := 0; i < 100; i++ {
		genes := make([]Gene, 0, 8)
		for n := g.Intn(8); len(genes) <= n; {
			genes = append(genes, space.randomGene(g))
		}
		once := space.repair(genes)
		twice := space.repair(once)
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("repair not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
		}
	}
}

// TestGenomeRoundTrip checks campaign schedules survive the genome encoding:
// FromFaults then toFaults reproduces the schedule's fault configuration, so
// generation zero of the search really replays the random campaign.
func TestGenomeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params campaign.Params
	}{
		{"classic", campaign.Params{Sites: 3, Rejoin: true}},
		{"grouped", campaign.Params{Sites: 3, Groups: 3}},
		{"overload", campaign.Params{Sites: 3, Overload: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				sched := campaign.New(expr.DeriveSeed(99, i), tc.params)
				assertSameFaults(t, sched.Seed, sched.Faults, spaceOf(tc.params).toFaults(FromFaults(sched.Faults)))
			}
		})
	}
}

// TestGenerationZeroIsTheCampaign: the explorer's first generation is the
// campaign plan for the same seed and parameters, Rejoin included, so a
// faultsim -explore -rejoin search starts from the -campaign -rejoin
// schedules.
func TestGenerationZeroIsTheCampaign(t *testing.T) {
	params := campaign.Params{Sites: 3, Horizon: 15 * sim.Second, Rejoin: true}
	const seed, pop = 3, 32
	plan := campaign.Plan(seed, pop, params)
	for i, genes := range generationZero(params, seed, pop) {
		assertSameFaults(t, plan[i].Seed, plan[i].Faults, spaceOf(params).toFaults(genes))
	}
}

func assertSameFaults(t *testing.T, seed int64, want, got faults.Config) {
	t.Helper()
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("seed %d: schedule changed:\nwant %s\ngot  %s", seed, a, b)
	}
}
