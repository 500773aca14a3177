package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
)

// The rejoin-under-loss wedge (ROADMAP item 1), fixed: configs/lossy_rejoin.json
// — 3 sites, 300 clients, 10 000 transactions, 5 % random loss, site 3
// crashes at 30 s and recovers at 60 s — under the conservative protocol used
// to stop total-order delivery at every member on about one seed in 200, while
// a NACK was sent tens of thousands of times and answered never: a joiner's
// first gossip vouched for a survivor still repairing toward its flush target,
// and the stream's origin freed the chunk that survivor lacked. Two seeds
// ended with one survivor ahead, a length-mismatch verdict; they are saved as
// format-2 repros and kept as regression runs.
const (
	wedgeRepro1029 = "testdata/repro-conservative-s3-length-mismatch-1029.json"
	wedgeRepro29   = "testdata/repro-conservative-s3-length-mismatch-29.json"
)

func runConfig(t *testing.T, cfg core.Config) *core.Results {
	t.Helper()
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLossyRejoinWedgeReproduces is the regression guard for the fixed wedge
// (the TestRenumberWedgeReproduces pattern): both repros keep their expected
// length-mismatch verdict and replay SAFE (faultsim -replay-file exits 0 on
// them). At their seeds, at the seed that once wedged with a clean verdict
// and at seed 1, the rejoin completes and every NACK is answered. It is the
// rejoin-stable-claim mutant's killer.
func TestLossyRejoinWedgeReproduces(t *testing.T) {
	var cfg core.Config
	for _, path := range []string{wedgeRepro1029, wedgeRepro29} {
		r, err := explore.LoadRepro(path)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if r.Expect == nil || r.Expect.Kind != "length-mismatch" {
			t.Fatalf("%s: expect %+v", path, r.Expect)
		}
		if got := runReplayFile(path); got != 0 {
			t.Fatalf("runReplayFile(%s) = %d, want 0 (wedge fixed)", path, got)
		}
		cfg = r.Config
	}
	for _, seed := range []int64{1029, 29, 8504888770524129531, 1} {
		cfg.Seed = seed
		res := runConfig(t, cfg)
		t.Logf("seed %d: %d committed, %d nack misses", seed, res.Committed, res.GCS.NackMisses)
		if v := res.Verdict(); v != nil || res.Recoveries != 1 || res.GCS.NackMisses != 0 {
			t.Fatalf("seed %d: verdict %v, recoveries %d, nack misses %d — want clean (nil, 1, 0)",
				seed, v, res.Recoveries, res.GCS.NackMisses)
		}
	}
}
