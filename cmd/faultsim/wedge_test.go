package main

import (
	"os"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/sim"
)

// The rejoin-under-loss wedge (ROADMAP item 1): bench's lossy_rejoin
// configuration — 3 sites, 300 clients, 10 000 transactions, 5 % random
// loss, site 3 crashes at 30 s and recovers at 60 s, conservative — stops
// total-order delivery at every member on about one seed in 200, while a
// NACK is sent tens of thousands of times and answered never. Two seeds end
// with one survivor ahead, a length-mismatch verdict; they are saved as
// format-2 repros (TestGenWedgeFixtures writes them) so the bug replays from
// a file, and TestLossyRejoinWedgeReproduces passes while it reproduces.
const (
	wedgeRepro1029 = "testdata/repro-conservative-s3-length-mismatch-1029.json"
	wedgeRepro29   = "testdata/repro-conservative-s3-length-mismatch-29.json"
)

// lossyRejoin is bench/workloads.go's lossy_rejoin configuration at seed.
func lossyRejoin(seed int64) core.Config {
	return core.Config{Sites: 3, CPUsPerSite: 1, Clients: 300, Protocol: core.ProtocolConservative,
		Admission: core.DefaultAdmissionConfig(), TotalTxns: 10000, Seed: seed,
		Faults: faults.Config{
			Loss:     faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
			Crashes:  []faults.Crash{{Site: 3, At: 30 * sim.Second}},
			Recovers: []faults.Recover{{Site: 3, At: 60 * sim.Second}},
		}}
}

// TestGenWedgeFixtures writes the two wedge repros; a one-time generator:
// GEN_FIXTURE=1 go test ./cmd/faultsim -run TestGenWedgeFixtures
func TestGenWedgeFixtures(t *testing.T) {
	if os.Getenv("GEN_FIXTURE") == "" {
		t.Skip("fixture generator")
	}
	for _, seed := range []int64{1029, 29} {
		cfg := lossyRejoin(seed)
		res := runConfig(t, cfg)
		v := res.Verdict()
		triage := check.TriageOf(res.SafetyErr)
		if v == nil || triage == nil {
			t.Fatalf("seed %d: no violation to save (verdict %v)", seed, v)
		}
		r := &explore.Repro{
			Version:     explore.ReproVersion,
			Description: "ROADMAP item 1: rejoin under loss wedges total-order delivery; " + v.Error(),
			Config:      cfg,
			Expect:      explore.Expect{Verdict: "UNSAFE", Kind: triage.Kind},
			Triage:      triage,
		}
		path, err := r.Save("testdata")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}

func runConfig(t *testing.T, cfg core.Config) *core.Results {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLossyRejoinWedgeReproduces passes while ROADMAP item 1's wedge
// reproduces — the TestResidualWindowReproduces pattern. When item 1 is
// fixed the two repros stop reproducing: flip this guard into a regression
// test (both replay SAFE) as TestRenumberWedgeReproduces did for item 0.
func TestLossyRejoinWedgeReproduces(t *testing.T) {
	for _, path := range []string{wedgeRepro1029, wedgeRepro29} {
		r, err := explore.LoadRepro(path)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if r.Config.Hooks != (core.Hooks{}) || r.Expect.Kind != "length-mismatch" {
			t.Fatalf("%s: hooks %+v, expected kind %q", path, r.Config.Hooks, r.Expect.Kind)
		}
		reproduced, detail, err := r.Replay()
		if err != nil {
			t.Fatalf("%s: replay: %v", path, err)
		}
		if !reproduced {
			t.Fatalf("%s no longer reproduces (verdict %q) — if item 1 is fixed, flip this guard", path, detail)
		}
	}
	// The same configuration wedges at this seed too, and Verdict() calls
	// it clean: no site recovers, yet no check fails. Flip this when item
	// 1(a)'s WEDGED leg lands — the run must then be refused.
	r, err := explore.LoadRepro(wedgeRepro1029)
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config
	cfg.Seed = 8504888770524129531
	res := runConfig(t, cfg)
	t.Logf("seed %d: %d committed, %d nack misses", cfg.Seed, res.Committed, res.GCS.NackMisses)
	if v := res.Verdict(); v != nil || res.Recoveries != 0 || res.GCS.NackMisses < 60000 {
		t.Fatalf("seed %d: verdict %v, recoveries %d, nack misses %d — want a silent wedge (nil, 0, >= 60 000)",
			cfg.Seed, v, res.Recoveries, res.GCS.NackMisses)
	}
	// And seed 1 of it is clean: the rejoin completes and every NACK is
	// answered.
	cfg.Seed = 1
	res = runConfig(t, cfg)
	t.Logf("seed %d: %d committed, %d nack misses", cfg.Seed, res.Committed, res.GCS.NackMisses)
	if v := res.Verdict(); v != nil || res.Recoveries != 1 || res.GCS.NackMisses != 0 {
		t.Fatalf("seed 1: verdict %v, recoveries %d, nack misses %d — want clean", v, res.Recoveries, res.GCS.NackMisses)
	}
}
