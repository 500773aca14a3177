package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/all.golden from the current tree")

// stdoutOf runs the command in-process and returns what it wrote to
// os.Stdout. A file, not a pipe, takes the output so nothing has to drain it
// concurrently.
func stdoutOf(t *testing.T, args ...string) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	if status := run(args); status != 0 {
		t.Fatalf("experiments %v: exit status %d", args, status)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAllGolden pins the complete evaluation: every table `experiments all`
// prints, at a scale that runs in seconds, must reproduce testdata/all.golden
// byte for byte at any worker count. Stdout is a pure function of the flags —
// no column reads a host clock — so a diff here is a change in simulated
// behaviour or in a table's layout. Regenerate with `go test
// ./cmd/experiments -run TestAllGolden -update` only for an intended change,
// and say which tables moved and why.
func TestAllGolden(t *testing.T) {
	all := func(parallel string) []byte {
		return stdoutOf(t, "-fast", "-txns", "200", "-reps", "1", "-progress=false", "-parallel", parallel, "all")
	}
	got := all("1")
	if !bytes.Equal(got, all("4")) {
		t.Fatal("stdout differs between -parallel 1 and -parallel 4")
	}
	path := filepath.Join("testdata", "all.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("all.golden line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("all.golden: %d lines, want %d", len(gl), len(wl))
}
