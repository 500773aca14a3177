package core

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestRelations pins changes that must move nothing: each row's base run and
// its second run mean the same simulation, so they must agree on the event
// count, the duration, the printed summary and the folded layer counters
// (Results.Stats and Results.GCS), and the cross-group outcomes. A component
// that is present but inactive
// must draw from no stream another component shares, schedule no event and
// shift no tie; storage a model takes off a shelf must carry nothing from
// the model that left it there.
func TestRelations(t *testing.T) {
	for _, tc := range []struct {
		name string
		base Config
		// patch turns the base into the second run's config; nil runs the
		// base again.
		patch func(*Config)
		// between runs after the base and before the second run.
		between func(t *testing.T)
	}{
		{
			// The loss model, the reorder injector and the duplicate
			// injector draw from one per-host stream, so a loss at rate 0
			// that drew anyway would move the packets reordering picks.
			name: "reorder plus loss at rate 0",
			base: Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5,
				Faults: faults.Config{Reorder: faults.Chaos{Rate: 0.3, Delay: 2 * sim.Millisecond, At: sim.Second}}},
			patch: func(c *Config) { c.Faults.Loss = faults.Loss{Kind: faults.LossRandom, Rate: 0} },
		},
		{
			// The fields only tests set, at the values fill gives them when
			// unset: the think time (the aggregate tier reads it from its
			// arrival process, not from a client) and the segment.
			name:  "think time set to the calibration's",
			base:  Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5},
			patch: func(c *Config) { c.thinkTime = calibration.ThinkTime },
		},
		{
			name: "think time set to the calibration's, aggregate tier",
			base: Config{Sites: 3, Clients: 3000, AggregateClients: 1000, TotalTxns: 400, Seed: 8,
				Admission: &AdmissionConfig{MaxActivePerSite: 8}},
			patch: func(c *Config) { c.thinkTime = calibration.ThinkTime },
		},
		{
			name:  "segment set to the default",
			base:  Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5},
			patch: func(c *Config) { c.lan = simnet.DefaultLANConfig("lan0") },
		},
		{
			// Options whose value binds nothing: one group is the classic
			// model, a replication degree of every site is full
			// replication, a threshold no read set reaches upgrades none, the
			// time bound is fill's, and a cap no site reaches rejects none.
			name:  "groups 1",
			base:  Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5},
			patch: func(c *Config) { c.Groups = 1 },
		},
		{
			name:  "replication degree equal to sites",
			base:  Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5},
			patch: func(c *Config) { c.ReplicationDegree = c.Sites },
		},
		{
			name:  "read-set threshold 10^9",
			base:  Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5},
			patch: func(c *Config) { c.ReadSetThreshold = 1e9 },
		},
		{
			name:  "time bound set to the default",
			base:  Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5},
			patch: func(c *Config) { c.MaxSimTime = 2 * sim.Hour },
		},
		{
			name:  "admission cap 10^9",
			base:  Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5},
			patch: func(c *Config) { c.Admission = &AdmissionConfig{MaxActivePerSite: 1e9} },
		},
		{
			// Faults at the same instant apply in a fixed order, not in the
			// order the file lists them.
			name: "same-instant crashes in either order",
			base: Config{Sites: 5, Clients: 150, TotalTxns: 600, Seed: 6,
				Faults: faults.Config{Crashes: []faults.Crash{{Site: 4, At: 2 * sim.Second}, {Site: 2, At: 2 * sim.Second}}}},
			patch: func(c *Config) { slices.Reverse(c.Faults.Crashes) },
		},
		{
			name: "same-instant slow nodes in either order",
			base: Config{Sites: 5, Clients: 150, TotalTxns: 600, Seed: 6,
				Faults: faults.Config{SlowNodes: []faults.SlowNode{{Site: 3, Factor: 10, At: 2 * sim.Second}, {Site: 1, Factor: 4, At: 2 * sim.Second}}}},
			patch: func(c *Config) { slices.Reverse(c.Faults.SlowNodes) },
		},
		{
			// A model takes what finished ones shelved: RNG sources, kernel
			// slabs, the certifier index, clients' transactions and stacks'
			// free buffers. The base run must not tell whether an aggregate
			// model (buffers, no client transactions), an optimistic one and
			// one on a squeezed MTU (buffers too small for the base's
			// datagrams) ran before it.
			name: "warm shelves",
			base: Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5},
			between: func(t *testing.T) {
				runModel(t, Config{Sites: 3, Clients: 3000, AggregateClients: 1000, TotalTxns: 400, Seed: 8,
					Admission: &AdmissionConfig{MaxActivePerSite: 8}})
				runModel(t, Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 9, Protocol: ProtocolOptimistic})
				squeezed := groupCfg(ProtocolConservative, 11)
				squeezed.lan = simnet.LANConfig{MTU: 96}
				runModel(t, squeezed)
			},
		},
		{
			// A group-mode model takes, besides those, servers' latency
			// arrays and lock tables and replicas' cross-group records and
			// transaction tables. A model with loss, a crash and a rejoin (a
			// dead incarnation's replica released mid-run) and a
			// single-group one fill the shelves between the base's runs.
			name: "warm shelves, group mode",
			base: groupCfg(ProtocolConservative, 13),
			between: func(t *testing.T) {
				_, r := runModel(t, Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 14,
					Admission: DefaultAdmissionConfig(),
					Faults: faults.Config{
						Loss:     faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
						Crashes:  []faults.Crash{{Site: 3, At: 3 * sim.Second}},
						Recovers: []faults.Recover{{Site: 3, At: 6 * sim.Second}},
					}})
				if r.Recoveries != 1 {
					t.Fatalf("the lossy model recovered %d times, want 1", r.Recoveries)
				}
				runModel(t, Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 15})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Run(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			if tc.between != nil {
				tc.between(t)
			}
			cfg := tc.base
			if tc.patch != nil {
				tc.patch(&cfg)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameRun(t, a, b)
			if tc.base.Groups > 1 && a.MultiGroupCommitted == 0 {
				t.Fatal("the group-mode base committed no cross-group transaction")
			}
		})
	}
	// Four committed run files, cut to 1 000 transactions, each against
	// itself plus one inert fault of a kind the file does not carry, or with
	// the transaction log on, at seeds 1-3; a file's rows share each seed's
	// base run. The files run in parallel: a model's outcome may not depend
	// on what another left on the shelves.
	for _, file := range []string{"lan3_cons", "lan3_opt", "groups3_x", "lossy_rejoin"} {
		t.Run(file, func(t *testing.T) {
			base := runFile(t, file)
			base.TotalTxns = 1000
			for seed := int64(1); seed <= 3; seed++ {
				base.Seed = seed
				a, err := Run(base)
				if err != nil {
					t.Fatal(err)
				}
				row := func(name string, patch func(*Config)) {
					t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
						cfg := base
						patch(&cfg)
						b, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						sameRun(t, a, b)
					})
				}
				for _, in := range inertFaults {
					if !in.carried(base.Faults) {
						row(in.name, func(c *Config) { in.patch(&c.Faults) })
					}
				}
				row("txn log on", func(c *Config) { c.logTxns = true })
			}
		})
	}
}

// inertFaults are faults present in a run but injecting nothing: a rate or
// factor that does nothing, or an onset long after the run has quiesced.
// patch adds one to a run that does not carry its kind already.
var inertFaults = []struct {
	name    string
	carried func(faults.Config) bool
	patch   func(*faults.Config)
}{
	{"loss at rate 0",
		func(f faults.Config) bool { return f.Loss.Kind != faults.LossNone },
		func(f *faults.Config) { f.Loss = faults.Loss{Kind: faults.LossRandom} }},
	{"duplication at rate 0",
		func(f faults.Config) bool { return f.Duplicate != faults.Chaos{} },
		func(f *faults.Config) { f.Duplicate = faults.Chaos{Delay: 2 * sim.Millisecond, At: sim.Second} }},
	{"reordering at rate 0",
		func(f faults.Config) bool { return f.Reorder != faults.Chaos{} },
		func(f *faults.Config) { f.Reorder = faults.Chaos{Delay: 2 * sim.Millisecond, At: sim.Second} }},
	{"saturation at factor 1",
		func(f faults.Config) bool { return f.Saturation != faults.Saturation{} },
		func(f *faults.Config) { f.Saturation = faults.Saturation{Factor: 1, At: sim.Second} }},
	{"slow node at factor 1",
		func(f faults.Config) bool { return len(f.SlowNodes) > 0 },
		func(f *faults.Config) { f.SlowNodes = []faults.SlowNode{{Site: 2, Factor: 1, At: sim.Second}} }},
	{"clock drift at rate 0",
		func(f faults.Config) bool { return f.ClockDriftRate != 0 || len(f.ClockDriftSites) > 0 },
		func(f *faults.Config) { f.ClockDriftSites = []int32{2} }},
	{"crash at 7000 s",
		func(f faults.Config) bool { return len(f.Crashes) > 0 },
		func(f *faults.Config) { f.Crashes = []faults.Crash{{Site: 3, At: 7000 * sim.Second}} }},
}

// runFile decodes the run configuration of configs/<name>.json.
func runFile(t *testing.T, name string) Config {
	t.Helper()
	b, err := os.ReadFile("../../configs/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Config Config }
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	return file.Config
}

// sameRun fails t unless a and b agree on everything TestRelations compares.
func sameRun(t *testing.T, a, b *Results) {
	t.Helper()
	if a.Events != b.Events || a.Duration != b.Duration {
		t.Fatalf("run shape moved: events %d → %d, duration %v → %v", a.Events, b.Events, a.Duration, b.Duration)
	}
	if sa, sb := a.Summary(), b.Summary(); sa != sb {
		t.Fatalf("summary moved:\n%s\n→\n%s", sa, sb)
	}
	if a.Stats != b.Stats {
		t.Fatalf("replica counters moved:\n%+v\n→\n%+v", a.Stats, b.Stats)
	}
	if a.GCS != b.GCS {
		t.Fatalf("gcs counters moved:\n%+v\n→\n%+v", a.GCS, b.GCS)
	}
	if a.MultiGroupCommitted != b.MultiGroupCommitted || a.MultiGroupAborted != b.MultiGroupAborted {
		t.Fatalf("cross-group outcomes moved: %d committed, %d aborted → %d, %d",
			a.MultiGroupCommitted, a.MultiGroupAborted, b.MultiGroupCommitted, b.MultiGroupAborted)
	}
}
