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
// repros and kept as regression runs.
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
// (now a wedged one) and at seed 1, the verdict is clean and every NACK is
// answered. It is the rejoin-stable-claim mutant's killer.
func TestLossyRejoinWedgeReproduces(t *testing.T) {
	var cfg core.Config
	for _, path := range []string{wedgeRepro1029, wedgeRepro29} {
		r, err := explore.LoadRepro(path)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if r.Expect != "length-mismatch" {
			t.Fatalf("%s: expect %q", path, r.Expect)
		}
		if got := runReplayFile(path, 0, 0, 0); got != 0 {
			t.Fatalf("runReplayFile(%s) = %d, want 0 (wedge fixed)", path, got)
		}
		cfg = r.Config
	}
	for _, seed := range []int64{1029, 29, 8504888770524129531, 1} {
		cfg.Seed = seed
		res := runConfig(t, cfg)
		t.Logf("seed %d: %d committed, %d nack misses", seed, res.Committed, res.GCS.NackMisses)
		if v := res.Verdict(); v != nil || res.GCS.NackMisses != 0 {
			t.Fatalf("seed %d: verdict %v, nack misses %d — want clean (nil, 0)", seed, v, res.GCS.NackMisses)
		}
	}
}

// lostTerminationRepro is the lost-termination wedge, fixed: conservative
// campaign[62] of `faultsim -config configs/faultsim.json -campaign 100
// -rejoin -seed 7` with its Recovers entry removed. Site 1, the initial
// sequencer, crashes under 8 % loss while site 2 has chunks of its own
// queued behind the flush. The install's unfreeze self-delivered them at
// site 2, now the sequencer, before onInstall anchored its counter, so one
// got global 1 while delivery stood near 1 750; site 3 discarded the body as
// already passed, and the transaction sat in pendingCert, holding its locks,
// until the 20 min bound. The commit logs passed the safety check, so only
// the liveness leg saw it.
const lostTerminationRepro = "testdata/repro-conservative-s3-wedged-6836129103706797786.json"

// TestLostTerminationWedgeReproduces is the regression guard for the fixed
// wedge (the TestLossyRejoinWedgeReproduces pattern): the repro keeps its
// expected wedged verdict and replays clean, so faultsim -replay-file exits
// 0 on it. It is the handover-assigns-before-anchor mutant's killer.
func TestLostTerminationWedgeReproduces(t *testing.T) {
	r, err := explore.LoadRepro(lostTerminationRepro)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if r.Expect != "wedged" || len(r.Config.Faults.Recovers) != 0 {
		t.Fatalf("repro drifted: expect %q, recovers %v", r.Expect, r.Config.Faults.Recovers)
	}
	kind, detail, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if kind != "" {
		t.Fatalf("the lost-termination wedge is back: %s", detail)
	}
	if got := runReplayFile(lostTerminationRepro, 0, 0, 0); got != 0 {
		t.Fatalf("runReplayFile(lost termination) = %d, want 0 (wedge fixed)", got)
	}
}
