package driver_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/driver"
)

// seedModule writes a tiny module with two planted violations: a
// time.Sleep in a deterministic package (simdeterminism) and a parse
// error dropped without counting (statcount).
func seedModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module seedmod\n\ngo 1.24\n")
	write("sim/sim.go", `package sim

import (
	"errors"
	"time"
)

var errShort = errors.New("short")

func parseFrame(b []byte) (int, error) {
	if len(b) < 2 {
		return 0, errShort
	}
	return int(b[0]), nil
}

func Tick() {
	time.Sleep(time.Millisecond)
}

func Recv(b []byte) {
	n, err := parseFrame(b)
	if err != nil {
		return
	}
	_ = n
}
`)
	return dir
}

func TestAnalyzeSeededModule(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
	dir := seedModule(t)
	diags, err := driver.Analyze(dir, "./...")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	joined := strings.Join(got, "\n")
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %d:\n%s", len(diags), joined)
	}
	if !strings.Contains(joined, "[simdeterminism]") || !strings.Contains(joined, "time.Sleep") {
		t.Errorf("missing simdeterminism finding:\n%s", joined)
	}
	if !strings.Contains(joined, "[statcount]") || !strings.Contains(joined, "parseFrame") {
		t.Errorf("missing statcount finding:\n%s", joined)
	}
}

// TestAnalyzeCleanTree runs the invariant suite over the whole module, so
// tier-1 (go test ./...) fails on a hot-path allocation, a host-clock read or
// an uncounted drop in product code. _test.go files are seen only by the
// go vet -vettool mode CI runs.
func TestAnalyzeCleanTree(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := driver.Analyze(wd, "repro/...")
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(diags) != 0 {
		var got []string
		for _, d := range diags {
			got = append(got, d.String())
		}
		t.Fatalf("tree not clean:\n%s", strings.Join(got, "\n"))
	}
}

// TestVettoolSeededModule builds cmd/analyze and runs it the way CI
// does — `go vet -vettool=...` — against the seeded module, asserting
// the planted violations fail the build.
func TestVettoolSeededModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	tool := filepath.Join(t.TempDir(), "analyze")
	build := exec.Command("go", "build", "-o", tool, "repro/cmd/analyze")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/analyze: %v\n%s", err, out)
	}

	dir := seedModule(t)
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed on a module with planted violations:\n%s", out)
	}
	for _, want := range []string{"time.Sleep", "[simdeterminism]", "parseFrame", "[statcount]"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("vet output missing %q:\n%s", want, out)
		}
	}
}
