package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/golden"
	"repro/internal/sim"
)

const smoke = "../../configs/smoke.json"

// TestGolden pins dbsim's whole report on the smoke config — headline
// metrics, verdict, per-class and per-site detail — against
// testdata/smoke.golden. Regenerate with `go test ./cmd/dbsim -update` only
// for an intended change, and say which lines moved.
func TestGolden(t *testing.T) {
	golden.Check(t, filepath.Join("testdata", "smoke.golden"), golden.Stdout(t, run, "-config", smoke, "-v"))
}

// TestSeedReplacesTheFiles: -seed, when given, is the run's seed.
func TestSeedReplacesTheFiles(t *testing.T) {
	out := string(golden.Stdout(t, run, "-config", smoke, "-seed", "7"))
	first, _, _ := strings.Cut(out, "\n")
	if !strings.HasPrefix(first, "config: ") || !strings.HasSuffix(first, " seed=7") {
		t.Fatalf("config line %q does not carry seed=7", first)
	}
}

// TestUsageErrors: no run file, a missing one, and one with a misspelled key
// all exit 2 before a run starts.
func TestUsageErrors(t *testing.T) {
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, []byte(`{"version": 2, "config": {"sites": 3, "clinets": 60}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{},
		{"-seed", "7"},
		{"-config", filepath.Join(t.TempDir(), "missing.json")},
		{"-config", typo},
	} {
		if got := run(args); got != 2 {
			t.Errorf("dbsim %v = %d, want 2", args, got)
		}
	}
}

// failingRun runs dbsim on args and returns its stdout, requiring exit
// status 1.
func failingRun(t *testing.T, args ...string) string {
	t.Helper()
	return string(golden.Stdout(t, func(args []string) int {
		if got := run(args); got != 1 {
			t.Errorf("dbsim %v = %d, want 1", args, got)
		}
		return 0
	}, args...))
}

// TestFailedVerdictExitsOne: a run whose verdict fails prints the verdict
// word faultsim prints for it and exits 1. Cut at 2 simulated seconds, the
// smoke run stops before quiescing (WEDGED); the n = 5 non-prefix repro
// breaks the safety check (UNSAFE).
func TestFailedVerdictExitsOne(t *testing.T) {
	for _, c := range []struct{ file, word string }{
		{cutAt(t, smoke, 2*sim.Second), "WEDGED: stopped before quiescing"},
		{"../faultsim/testdata/repro-conservative-s5-non-prefix--3610918436655193305.json", "UNSAFE: "},
	} {
		if out := failingRun(t, "-config", c.file); !strings.Contains(out, "\n"+c.word) {
			t.Errorf("dbsim -config %s does not print %q:\n%s", c.file, c.word, out)
		}
	}
}

// TestSiteStates: -v prints each site's state at the end of the run, up as
// is and any other upper-cased. lossy_rejoin crashes site 3 at 30 s and
// rejoins it at 60 s; cut at 45 s the site is CRASHED, cut at 61 s, while
// the state transfer still runs, RECOVERING.
func TestSiteStates(t *testing.T) {
	for _, c := range []struct {
		bound sim.Time
		want  string
	}{{45 * sim.Second, "CRASHED"}, {61 * sim.Second, "RECOVERING"}} {
		out := failingRun(t, "-config", cutAt(t, "../../configs/lossy_rejoin.json", c.bound), "-v")
		for _, line := range []string{"  site 1: up ", "  site 3: " + c.want + " "} {
			if !strings.Contains(out, "\n"+line) {
				t.Errorf("cut at %v: no line starting %q:\n%s", c.bound, line, out)
			}
		}
	}
}

// cutAt writes the run file at path with its simulated time bounded to
// bound into a temporary directory, and returns the copy's path.
func cutAt(t *testing.T, path string, bound sim.Time) string {
	t.Helper()
	r, err := explore.LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	r.Config.MaxSimTime = bound
	b, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.json")
	if err := os.WriteFile(cut, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return cut
}
