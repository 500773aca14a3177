package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/golden"
	"repro/internal/sim"
)

// smoke is the CI workload; the groups and aggregate goldens run its
// variants in testdata.
const smoke = "../../configs/smoke.json"

// goldenRuns are the invocations CI used to run as separate `go run` steps —
// the five short campaigns, the fixed matrix and the failure-rate sweep —
// and -list on the matrix and on the first campaign.
var goldenRuns = []struct{ name, args string }{
	{"campaign", "-config " + smoke + " -short -campaign 12"},
	{"rejoin", "-config " + smoke + " -short -campaign 8 -rejoin"},
	{"overload", "-config " + smoke + " -short -campaign 8 -overload"},
	{"groups", "-config testdata/smoke_groups.json -short -campaign 8"},
	{"aggregate", "-config testdata/smoke_aggregate.json -short -campaign 8"},
	{"matrix", "-config " + smoke + " -short"},
	{"sweep", "-replay-file ../../configs/lossy_rejoin.json -seeds 20"},
	{"list", "-config " + smoke + " -short -list"},
	{"campaign-list", "-config " + smoke + " -short -campaign 12 -list"},
}

// TestGolden pins every verdict line faultsim prints for goldenRuns against
// testdata/<name>.golden, byte for byte, and the first campaign and the sweep
// across worker counts. Stdout is a pure function of the flags, so a diff
// here is a change in simulated behaviour, in a campaign's draws, or in the
// layout — "did a verdict line move?" is this test, not a hand diff.
// Regenerate with `go test ./cmd/faultsim -run TestGolden -update` only for
// an intended change, and say which lines moved and why. Race builds compare
// the sweep at one worker count only: its 20 lossy_rejoin runs take about
// 13 s each there (against 0.2 s), and the output does not depend on the
// build, so the plain build's comparison covers it.
func TestGolden(t *testing.T) {
	for i, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			args := strings.Fields(g.args)
			got := golden.Stdout(t, run, append(args, "-parallel", "4")...)
			if (i == 0 || g.name == "sweep" && !sim.RaceBuild) && !bytes.Equal(got, golden.Stdout(t, run, append(args, "-parallel", "1")...)) {
				t.Fatal("stdout differs between -parallel 4 and -parallel 1")
			}
			golden.Check(t, filepath.Join("testdata", g.name+".golden"), got)
		})
	}
}

// goldenRepro is a minimized repro the explorer produced against the
// uniform-delivery bug, since fixed, which internal/mutants'
// non-uniform-sequencer mutant reopens: one partition gene isolating the
// sequencer mid-run made it commit a transaction the survivors renumber. The file is self-contained, so
// it pins the whole -replay-file path: load, rebuild the config, replay,
// classify.
const goldenRepro = "testdata/repro-conservative-s3-non-prefix--2362459762591223984.json"

// TestGoldenReproReproduces is the regression guard for the uniform-delivery
// fix: on the tree the repro must replay SAFE (faultsim -replay-file exits 0
// on it) while keeping its expected non-prefix verdict kind. It is the
// non-uniform-sequencer mutant's killer: with the fix reverted it reproduces.
func TestGoldenReproReproduces(t *testing.T) {
	r, err := explore.LoadRepro(goldenRepro)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if r.Expect != "non-prefix" {
		t.Fatalf("golden repro expect drifted: %q", r.Expect)
	}
	kind, detail, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if r.Reproduces(kind) {
		t.Fatalf("the fixed non-uniform sequencer divergence reproduced again (%s) — "+
			"the uniform-delivery gate in gcs/totalorder.go regressed", detail)
	}
	if got := runReplayFile(goldenRepro, 0, 0, 0); got != 0 {
		t.Fatalf("runReplayFile(golden) = %d, want 0 (violation fixed)", got)
	}
}

// residualWindowRepro is the explorer's minimized reproduction of the
// residual non-uniform delivery window documented in gcs/totalorder.go: at
// n=5 an ordering announcement held by only the sequencer and one other
// member (2 < the majority of 3) lets that member deliver and commit; a
// partition isolating exactly those two sites then makes the survivors
// renumber — a non-prefix divergence at the minority member. No simultaneous
// double crash is needed; one partition gene is the whole schedule.
const residualWindowRepro = "testdata/repro-conservative-s5-non-prefix--3610918436655193305.json"

// renumberWedgeRepro is the explorer's minimized reproduction of the FIXED
// sequencer-handover renumbering divergence: a member that installed the
// post-crash view late had processed the new sequencer's first
// announcements while frozen, anchored its leftover renumbering past them
// (base 56 vs the survivors' flush-agreed 44), and wedged with permanent
// holes in its global->message map — a length-mismatch verdict. The fix
// derives the renumbering base from flush-agreed state only
// (gcs/totalorder.go onInstall + rollbackUnagreed); this regression guard
// asserts the repro stays dead.
const renumberWedgeRepro = "testdata/repro-conservative-s5-length-mismatch--513150766704571529.json"

// TestResidualWindowReproduces keeps the documented n>=5 window honest: the
// repro must keep reproducing for exactly as long as the totalorder.go
// comment documents the window as open. If a change closes it (full uniform
// delivery at every member), update the comment and flip this guard.
func TestResidualWindowReproduces(t *testing.T) {
	r, err := explore.LoadRepro(residualWindowRepro)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	kind, detail, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !r.Reproduces(kind) {
		t.Fatalf("the documented n>=5 window no longer reproduces (verdict %q) — "+
			"if it was closed on purpose, update gcs/totalorder.go's comment and this guard", detail)
	}
	if r.Expect != "non-prefix" {
		t.Fatalf("window repro expect drifted: %q", r.Expect)
	}
}

// TestRenumberWedgeReproduces is the regression guard for the fixed
// renumbering-divergence finding: the minimized schedule that used to wedge
// one survivor must now run to a SAFE verdict (faultsim -replay-file exits 0
// on it).
func TestRenumberWedgeReproduces(t *testing.T) {
	r, err := explore.LoadRepro(renumberWedgeRepro)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	kind, detail, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if r.Reproduces(kind) {
		t.Fatalf("the fixed renumbering divergence reproduced again (%s) — "+
			"the flush-agreed renumbering base in gcs/totalorder.go regressed", detail)
	}
	if got := runReplayFile(renumberWedgeRepro, 0, 0, 0); got != 0 {
		t.Fatalf("runReplayFile(wedge) = %d, want 0 (violation fixed)", got)
	}
}

// TestRunReplayFile pins the command-level exit codes, at the file's seed
// and swept over two derived seeds: 1 when a repro's violation reproduces, 0
// when a plain config runs clean, 2 on a missing file, a misspelled key, or
// no run file at all.
func TestRunReplayFile(t *testing.T) {
	for _, seeds := range []int{0, 2} {
		if got := runReplayFile(residualWindowRepro, seeds, 1, 0); got != 1 {
			t.Fatalf("runReplayFile(residual window, %d seeds) = %d, want 1 (violation reproduces)", seeds, got)
		}
		if got := runReplayFile(smoke, seeds, 1, 0); got != 0 {
			t.Fatalf("runReplayFile(smoke, %d seeds) = %d, want 0 (a clean config)", seeds, got)
		}
	}
	if got := runReplayFile(filepath.Join(t.TempDir(), "missing.json"), 0, 0, 0); got != 2 {
		t.Fatalf("runReplayFile(missing) = %d, want 2", got)
	}
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, []byte(`{"version": 3, "config": {"sites": 3, "clinets": 60}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmdline := range []string{"-replay-file " + typo, "-config " + typo + " -short", "-short -campaign 2"} {
		if got := run(strings.Fields(cmdline)); got != 2 {
			t.Errorf("faultsim %s = %d, want 2", cmdline, got)
		}
	}
}

// TestRunFilesLoadStrictly: every committed run file — the configs and the
// repros — loads under the strict reader, so none carries a key that a run
// would silently ignore.
func TestRunFilesLoadStrictly(t *testing.T) {
	var paths []string
	for _, pattern := range []string{"../../configs/*.json", "testdata/*.json"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) < 14 {
		t.Fatalf("found %d run files, want the 7 configs, 2 smoke variants and 5 repros: %v", len(paths), paths)
	}
	for _, path := range paths {
		if _, err := explore.LoadRepro(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestCampaignFailureSavesRepro drives runCampaign's failure branch: a
// one-schedule plan built from the residual-window repro (its seed, its
// faults, its config) fails, is saved under the corpus directory, and its
// reproduce: line names that file, which -replay-file then reproduces.
func TestCampaignFailureSavesRepro(t *testing.T) {
	r, err := explore.LoadRepro(residualWindowRepro)
	if err != nil {
		t.Fatal(err)
	}
	plan := []campaign.Schedule{{Seed: r.Config.Seed, Kinds: []string{campaign.KindPartition}, Faults: r.Config.Faults}}
	dir := t.TempDir()
	out := golden.Stdout(t, func([]string) int {
		if n := runCampaign(r.Config, plan, 1, dir); n != 1 {
			t.Errorf("runCampaign = %d failures, want 1", n)
		}
		return 0
	})
	saved, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(saved) != 1 {
		t.Fatalf("corpus holds %v (%v), want one repro", saved, err)
	}
	if want := "  reproduce: faultsim -replay-file " + saved[0] + "\n"; !strings.Contains(string(out), want) {
		t.Fatalf("stdout does not name the saved repro:\n%s", out)
	}
	if got := runReplayFile(saved[0], 0, 0, 0); got != 1 {
		t.Fatalf("runReplayFile(saved) = %d, want 1 (violation reproduces)", got)
	}
}

// TestGroupModeUsageErrors pins the two flag combinations group mode cannot
// honour: both exit 2 before a run starts, neither drops a flag silently.
func TestGroupModeUsageErrors(t *testing.T) {
	const groups = "-config testdata/smoke_groups.json -short"
	for _, cmdline := range []string{
		groups,                                // the fixed matrix is single-group
		groups + " -campaign 2 -rejoin",       // no recovery inside groups
		groups + " -explore -rejoin",          // nor in the explorer's gene set
		groups + " -campaign 2 -rejoin -list", // nor in a listed schedule
	} {
		if got := run(strings.Fields(cmdline)); got != 2 {
			t.Errorf("faultsim %s = %d, want 2", cmdline, got)
		}
	}
}

// TestRunCountUsageErrors: a run count out of range for its mode exits 2
// before anything runs.
func TestRunCountUsageErrors(t *testing.T) {
	const smoke = "-config ../../configs/smoke.json -short"
	for _, cmdline := range []string{
		smoke + " -seeds 0",                              // the matrix, no seed
		smoke + " -seeds -1",                             // the matrix, a negative seed count
		smoke + " -campaign -3",                          // a negative campaign, not the fixed matrix
		smoke + " -explore -generations 0 -population 0", // an explorer with nothing to run
		smoke + " -explore -population 0",
		smoke + " -explore -generations -1",
		"-replay-file ../../configs/smoke.json -seeds -4", // a negative sweep, not one run
	} {
		if got := run(strings.Fields(cmdline)); got != 2 {
			t.Errorf("faultsim %s = %d, want 2", cmdline, got)
		}
	}
}

// TestParseFlags pins how -seeds resolves: its default of 3, 2 under -short,
// 0 (one run at the file's seed) under -replay-file, and an explicit -seeds
// over both.
func TestParseFlags(t *testing.T) {
	for _, c := range []struct {
		args  string
		seeds int
		short bool
	}{
		{"-config c.json", 3, false},
		{"-config c.json -short", 2, true},
		{"-config c.json -short -seeds 5", 5, true},
		{"-config c.json -seeds 5 -short", 5, true},
		{"-replay-file r.json", 0, false},
		{"-replay-file r.json -short", 0, true},
		{"-replay-file r.json -seeds 20", 20, false},
		{"-replay-file r.json -seeds 0", 0, false},
		{"-replay-file r.json -short -seeds 5", 5, true},
	} {
		o, err := parseFlags(strings.Fields(c.args))
		if err != nil {
			t.Fatalf("parseFlags(%s): %v", c.args, err)
		}
		if o.seeds != c.seeds || o.short != c.short {
			t.Errorf("parseFlags(%s): seeds=%d short=%v, want seeds=%d short=%v", c.args, o.seeds, o.short, c.seeds, c.short)
		}
	}
}
