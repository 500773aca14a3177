package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/golden"
)

// goldenRuns are the invocations CI used to run as separate `go run` steps:
// the five short campaigns and the fixed matrix.
var goldenRuns = []struct{ name, args string }{
	{"campaign", "-short -campaign 12"},
	{"rejoin", "-short -campaign 8 -rejoin"},
	{"overload", "-short -campaign 8 -overload"},
	{"groups", "-short -groups 3 -sites 3 -campaign 8"},
	{"aggregate", "-short -campaign 8 -aggregate 1"},
	{"matrix", "-short"},
}

// TestGolden pins every verdict line faultsim prints for goldenRuns against
// testdata/<name>.golden, byte for byte, and the first of them across worker
// counts. Stdout is a pure function of the flags, so a diff here is a change
// in simulated behaviour, in a campaign's draws, or in the layout — "did a
// verdict line move?" is this test, not a hand diff. Regenerate with `go test
// ./cmd/faultsim -run TestGolden -update` only for an intended change, and
// say which lines moved and why.
func TestGolden(t *testing.T) {
	for i, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			args := strings.Fields(g.args)
			got := golden.Stdout(t, run, append(args, "-parallel", "4")...)
			if i == 0 && !bytes.Equal(got, golden.Stdout(t, run, append(args, "-parallel", "1")...)) {
				t.Fatal("stdout differs between -parallel 4 and -parallel 1")
			}
			golden.Check(t, filepath.Join("testdata", g.name+".golden"), got)
		})
	}
}

// goldenRepro is a minimized repro the explorer produced against the
// pre-PR-7 uniform-delivery bug, resurrected through the test-only
// NonUniformSequencer hook: one partition gene isolating the sequencer
// mid-run makes it commit a transaction the survivors renumber. The file is
// self-contained, so this pins the whole -replay-file path: load, rebuild
// the config (hook included), replay, classify.
const goldenRepro = "testdata/repro-conservative-s3-non-prefix--2362459762591223984.json"

func TestGoldenReproReproduces(t *testing.T) {
	r, err := explore.LoadRepro(goldenRepro)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !r.Config.Hooks.NonUniformSequencer {
		t.Fatalf("golden repro lost its hook: %+v", r.Config.Hooks)
	}
	reproduced, detail, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reproduced {
		t.Fatalf("golden repro no longer reproduces (verdict %q)", detail)
	}
	if r.Expect.Kind != "non-prefix" || r.Triage == nil || r.Triage.Kind != "non-prefix" {
		t.Fatalf("golden repro triage drifted: expect=%+v triage=%+v", r.Expect, r.Triage)
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
// sequencer-handover renumbering divergence (ROADMAP item 0): a member that
// installed the post-crash view late had processed the new sequencer's first
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
	if r.Config.Hooks != (core.Hooks{}) {
		t.Fatalf("residual-window repro must not need any hook: %+v", r.Config.Hooks)
	}
	reproduced, detail, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reproduced {
		t.Fatalf("the documented n>=5 window no longer reproduces (verdict %q) — "+
			"if it was closed on purpose, update gcs/totalorder.go's comment and this guard", detail)
	}
	if r.Triage == nil || r.Triage.Kind != "non-prefix" {
		t.Fatalf("window repro triage drifted: %+v", r.Triage)
	}
}

// TestRenumberWedgeReproduces is the regression guard for the fixed
// renumbering-divergence finding: the minimized schedule that used to wedge
// one survivor must now run to a SAFE verdict (faultsim -replay-file exits 0
// on it). The repro must not need any resurrection hook — the fix lives in
// the production path.
func TestRenumberWedgeReproduces(t *testing.T) {
	r, err := explore.LoadRepro(renumberWedgeRepro)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if r.Config.Hooks != (core.Hooks{}) {
		t.Fatalf("wedge repro must not need any hook: %+v", r.Config.Hooks)
	}
	reproduced, detail, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if reproduced {
		t.Fatalf("the fixed renumbering divergence reproduced again (%s) — "+
			"the flush-agreed renumbering base in gcs/totalorder.go regressed", detail)
	}
	if got := runReplayFile(renumberWedgeRepro); got != 0 {
		t.Fatalf("runReplayFile(wedge) = %d, want 0 (violation fixed)", got)
	}
}

// TestRunReplayFile pins the command-level exit codes: 1 when the violation
// reproduces, 2 on a missing file.
func TestRunReplayFile(t *testing.T) {
	if got := runReplayFile(goldenRepro); got != 1 {
		t.Fatalf("runReplayFile(golden) = %d, want 1 (violation reproduces)", got)
	}
	if got := runReplayFile(filepath.Join(t.TempDir(), "missing.json")); got != 2 {
		t.Fatalf("runReplayFile(missing) = %d, want 2", got)
	}
}

// TestGroupModeUsageErrors pins the two flag combinations group mode cannot
// honour: both exit 2 before a run starts, neither drops a flag silently.
func TestGroupModeUsageErrors(t *testing.T) {
	for _, cmdline := range []string{
		"-short -groups 3 -sites 3",                         // the fixed matrix is single-group
		"-short -groups 3 -sites 3 -campaign 2 -rejoin",     // no recovery inside groups
		"-short -groups 3 -sites 3 -explore -rejoin",        // nor in the explorer's gene set
		"-short -groups 3 -sites 3 -replay 7 -rejoin -list", // nor in a listed schedule
	} {
		if got := run(strings.Fields(cmdline)); got != 2 {
			t.Errorf("faultsim %s = %d, want 2", cmdline, got)
		}
	}
}

// TestReproHintRoundTrips pins the contract of the "reproduce:" line: for
// every goldenRuns command line (plus a non-short one), parsing the printed
// hint back must yield the campaign parameters and workload of the original
// command line — otherwise -replay <seed> regenerates a different schedule,
// or runs it against a different workload, and the failure does not
// reproduce. -rejoin changes campaign.Params (hence every draw after the
// structural block) and -aggregate the client tier; both were once missing.
func TestReproHintRoundTrips(t *testing.T) {
	cmdlines := []string{"-sites 5 -clients 120 -txns 900 -campaign 4 -rejoin -overload -aggregate 50 -seed 9"}
	for _, g := range goldenRuns {
		cmdlines = append(cmdlines, g.args+" -parallel 4")
	}
	for _, cmdline := range cmdlines {
		orig, err := parseFlags(strings.Fields(cmdline))
		if err != nil {
			t.Fatalf("%q: %v", cmdline, err)
		}
		for _, p := range core.Protocols() {
			hint := orig.reproHint(p) + " -replay 12345"
			args := strings.Fields(hint)
			if args[0] != "faultsim" {
				t.Fatalf("%q: hint %q does not start with the command name", cmdline, hint)
			}
			back, err := parseFlags(args[1:])
			if err != nil {
				t.Fatalf("%q: hint %q does not parse: %v", cmdline, hint, err)
			}
			if got, want := back.params(), orig.params(); !reflect.DeepEqual(got, want) {
				t.Errorf("%q: hint %q regenerates params %+v, want %+v", cmdline, hint, got, want)
			}
			if got, want := back.base(), orig.base(); !reflect.DeepEqual(got, want) {
				t.Errorf("%q: hint %q runs workload %+v, want %+v", cmdline, hint, got, want)
			}
			if back.protocol != string(p) || back.replay != 12345 {
				t.Errorf("%q: hint %q selects protocol %q replay %d", cmdline, hint, back.protocol, back.replay)
			}
		}
	}
}
