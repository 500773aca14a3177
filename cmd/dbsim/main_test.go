package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
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
