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

// TestAnalyzeCleanTree is the suite's one entry point: it runs both
// analyzers over the whole module, so tier-1 (go test ./...) fails on a
// host-clock read, order-sensitive map iteration or an uncounted drop in
// product code, and prints every finding with its position. Every analyzer
// skips _test.go files.
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
