package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/expr"
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
// build, so the plain build's comparison covers it. A failing schedule's
// repro goes to a temporary -corpus, not into the source tree.
func TestGolden(t *testing.T) {
	for i, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			// faultsim at a worker count: its stdout and its runs.jsonl
			// (nil unless it replayed a run file).
			at := func(parallel string) (stdout, runs []byte) {
				dir := t.TempDir()
				stdout = golden.Stdout(t, run, append(strings.Fields(g.args), "-corpus", dir, "-parallel", parallel)...)
				runs, _ = os.ReadFile(filepath.Join(dir, "runs.jsonl"))
				return stdout, runs
			}
			got, runs := at("4")
			if g.name == "sweep" && bytes.Count(runs, []byte("\n")) != 20 {
				t.Fatalf("runs.jsonl holds %d lines, want one per seed (20)", bytes.Count(runs, []byte("\n")))
			}
			if i == 0 || g.name == "sweep" && !sim.RaceBuild {
				got1, runs1 := at("1")
				if !bytes.Equal(got, got1) {
					t.Fatal("stdout differs between -parallel 4 and -parallel 1")
				}
				if !bytes.Equal(runs, runs1) {
					t.Fatal("runs.jsonl differs between -parallel 4 and -parallel 1")
				}
			}
			golden.Check(t, filepath.Join("testdata", g.name+".golden"), got)
		})
	}
}

// replay runs a run file's configuration and returns its verdict kind (""
// when clean) and detail ("SAFE" when clean).
func replay(t *testing.T, r *explore.Repro) (kind, detail string) {
	t.Helper()
	kind, v := runConfig(t, r.Config).VerdictKind()
	if v == nil {
		return "", "SAFE"
	}
	return kind, v.Error()
}

// TestReplayRunsFile: a -replay-file sweep writes one runs.jsonl line per
// seed, in seed order, holding the derived seed, that run's verdict kind and
// its Results, which decode back to the run's own counters, classes and
// sites. The residual-window repro reproduces at one of its first seeds, so
// a failing verdict is written too.
func TestReplayRunsFile(t *testing.T) {
	dir := t.TempDir()
	if got := run([]string{"-replay-file", residualWindowRepro, "-seeds", "3", "-parallel", "2", "-corpus", dir}); got != 1 {
		t.Fatalf("faultsim = %d, want 1 (the violation reproduces)", got)
	}
	b, err := os.ReadFile(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("runs.jsonl holds %d lines, want 3", len(lines))
	}
	r, err := explore.LoadRepro(residualWindowRepro)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, line := range lines {
		var got struct {
			Seed    int64
			Verdict string
			Results core.Results
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		cfg := r.Config
		cfg.Seed = expr.DeriveSeed(1, i)
		want := runConfig(t, cfg)
		kind, _ := want.VerdictKind()
		if got.Seed != cfg.Seed || got.Verdict != kind {
			t.Fatalf("line %d: seed %d verdict %q, want %d %q", i, got.Seed, got.Verdict, cfg.Seed, kind)
		}
		if kind != "" {
			failed++
		}
		res := &got.Results
		if res.Stats != want.Stats || res.GCS != want.GCS || !reflect.DeepEqual(res.Classes, want.Classes) || !reflect.DeepEqual(res.Sites, want.Sites) {
			t.Fatalf("line %d decodes to other counters than its run's:\n%+v\nwant\n%+v", i, res, want)
		}
		var keys map[string]any
		if err := json.Unmarshal([]byte(line), &keys); err != nil {
			t.Fatal(err)
		}
		for _, missing := range missingKeys(reflect.TypeFor[core.Results](), keys["Results"], "Results") {
			t.Errorf("line %d: %s is not in runs.jsonl", i, missing)
		}
	}
	if failed == 0 {
		t.Fatal("test premise broken: no run reproduced the violation")
	}
}

// missingKeys walks struct type typ against its decoded JSON v and returns
// the path of every exported scalar field, at any depth and not tagged
// json:"-", that v does not carry; an embedded struct's fields are its
// parent's keys, as encoding/json promotes them. A field of a kind the walk
// does not know is reported too, so a new one cannot pass unwalked.
func missingKeys(typ reflect.Type, v any, path string) []string {
	obj, ok := v.(map[string]any)
	if !ok {
		return []string{path + " (not an object)"}
	}
	var missing []string
	for _, f := range reflect.VisibleFields(typ) {
		if !f.IsExported() || f.Tag.Get("json") == "-" || len(f.Index) > 1 {
			continue
		}
		if f.Anonymous {
			missing = append(missing, missingKeys(f.Type, v, path)...)
			continue
		}
		at := path + "." + f.Name
		val, present := obj[f.Name]
		switch f.Type.Kind() {
		case reflect.Bool, reflect.String, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
			if !present {
				missing = append(missing, at)
			}
		case reflect.Struct:
			missing = append(missing, missingKeys(f.Type, val, at)...)
		case reflect.Slice:
			elems, _ := val.([]any)
			if f.Type.Elem().Kind() != reflect.Struct || len(elems) == 0 {
				missing = append(missing, at+" (not a non-empty list of objects)")
				continue
			}
			for j, e := range elems {
				missing = append(missing, missingKeys(f.Type.Elem(), e, fmt.Sprintf("%s[%d]", at, j))...)
			}
		default:
			missing = append(missing, at+" (a "+f.Type.Kind().String()+" the walk does not know)")
		}
	}
	return missing
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
	kind, detail := replay(t, r)
	if r.Reproduces(kind) {
		t.Fatalf("the fixed non-uniform sequencer divergence reproduced again (%s) — "+
			"the uniform-delivery gate in gcs/totalorder.go regressed", detail)
	}
	if got := runReplayFile(goldenRepro, 0, 0, 0, t.TempDir()); got != 0 {
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
	kind, detail := replay(t, r)
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
	kind, detail := replay(t, r)
	if r.Reproduces(kind) {
		t.Fatalf("the fixed renumbering divergence reproduced again (%s) — "+
			"the flush-agreed renumbering base in gcs/totalorder.go regressed", detail)
	}
	if got := runReplayFile(renumberWedgeRepro, 0, 0, 0, t.TempDir()); got != 0 {
		t.Fatalf("runReplayFile(wedge) = %d, want 0 (violation fixed)", got)
	}
}

// TestRunReplayFile pins the command-level exit codes, at the file's seed
// and swept over two derived seeds: 1 when a repro's violation reproduces, 0
// when a plain config runs clean, 2 on a missing file, a misspelled key, or
// no run file at all.
func TestRunReplayFile(t *testing.T) {
	for _, seeds := range []int{0, 2} {
		if got := runReplayFile(residualWindowRepro, seeds, 1, 0, t.TempDir()); got != 1 {
			t.Fatalf("runReplayFile(residual window, %d seeds) = %d, want 1 (violation reproduces)", seeds, got)
		}
		if got := runReplayFile(smoke, seeds, 1, 0, t.TempDir()); got != 0 {
			t.Fatalf("runReplayFile(smoke, %d seeds) = %d, want 0 (a clean config)", seeds, got)
		}
	}
	if got := runReplayFile(filepath.Join(t.TempDir(), "missing.json"), 0, 0, 0, t.TempDir()); got != 2 {
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
	if got := runReplayFile(saved[0], 0, 0, 0, t.TempDir()); got != 1 {
		t.Fatalf("runReplayFile(saved) = %d, want 1 (violation reproduces)", got)
	}
}

// TestGroupModeUsageErrors pins the two flag combinations group mode cannot
// honour, and run files core refuses (a negative group count; crashes that
// leave a group no majority): each exits 2 before a run starts, with
// nothing on stdout (a sweep's header included), none drops a flag silently.
func TestGroupModeUsageErrors(t *testing.T) {
	const groups = "-config testdata/smoke_groups.json -short"
	dir := t.TempDir()
	negative := filepath.Join(dir, "negative_groups.json")
	if err := os.WriteFile(negative, []byte(`{"version": 3, "config": {"sites": 3, "groups": -3, "clients": 60, "txns": 300}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	majority := filepath.Join(dir, "majority_crashed.json")
	if err := os.WriteFile(majority, []byte(`{"version": 3, "config": {"sites": 3, "clients": 60, "txns": 300,
		"faults": {"Crashes": [{"Site": 3, "At": 5000000000}, {"Site": 2, "At": 10000000000}]}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmdline := range []string{
		groups,                                   // the fixed matrix is single-group
		groups + " -campaign 2 -rejoin",          // no recovery inside groups
		groups + " -explore -rejoin",             // nor in the explorer's gene set
		groups + " -campaign 2 -rejoin -list",    // nor in a listed schedule
		"-config " + negative + " -campaign 2",   // a config core refuses, before any run
		"-replay-file " + negative + " -seeds 3", // the same file as a run file
		"-replay-file " + majority,               // a crash-only file that crashes 2 of 3 sites
	} {
		out := golden.Stdout(t, func(args []string) int {
			if got := run(args); got != 2 {
				t.Errorf("faultsim %s = %d, want 2", cmdline, got)
			}
			return 0
		}, strings.Fields(cmdline)...)
		if len(out) != 0 {
			t.Errorf("faultsim %s printed before exiting:\n%s", cmdline, out)
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
