package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestAllGolden pins the complete evaluation: every table `experiments all`
// prints, at a scale that runs in seconds, must reproduce testdata/all.golden
// byte for byte at any worker count. Stdout is a pure function of the flags —
// no column reads a host clock — so a diff here is a change in simulated
// behaviour or in a table's layout. Regenerate with `go test
// ./cmd/experiments -run TestAllGolden -update` only for an intended change,
// and say which tables moved and why.
func TestAllGolden(t *testing.T) {
	all := func(parallel string) []byte {
		return golden.Stdout(t, run, "-fast", "-txns", "200", "-reps", "1", "-progress=false", "-parallel", parallel, "all")
	}
	got := all("1")
	if !bytes.Equal(got, all("4")) {
		t.Fatal("stdout differs between -parallel 1 and -parallel 4")
	}
	golden.Check(t, filepath.Join("testdata", "all.golden"), got)
}
