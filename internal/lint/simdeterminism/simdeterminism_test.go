package simdeterminism_test

import (
	"strings"
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/simdeterminism"
)

func TestDeterministicPackage(t *testing.T) {
	linttest.Run(t, simdeterminism.Analyzer, "sim")
}

func TestExemptPackage(t *testing.T) {
	linttest.Run(t, simdeterminism.Analyzer, "other")
}

func TestXGroupPackage(t *testing.T) {
	linttest.Run(t, simdeterminism.Analyzer, "xgroup")
}

// TestMainPackage covers a command: package main under a directory named in
// the deterministic set.
func TestMainPackage(t *testing.T) {
	linttest.Run(t, simdeterminism.Analyzer, "cmd/faultsim")
}

func TestBareDirective(t *testing.T) {
	diags := linttest.Diagnostics(t, simdeterminism.Analyzer, "db")
	if len(diags) != 1 || !strings.Contains(diags[0], "requires a reason") {
		t.Fatalf("want exactly the bare-directive diagnostic, got %q", diags)
	}
}
