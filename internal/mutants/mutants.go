// Package mutants reopens fixed bugs to test the tests that guard them. Each
// mutant in testdata/mutants.json is one exact edit of one source file, which
// TestMutants lays over the tree with `go test -overlay`: its killers must
// fail, and its needs, self-tests that only make sense while the bug is
// present, must pass. No production code knows a mutant. Only tests import it.
package mutants

import (
	"bytes"
	"os"
	"os/exec"
	"sync"
	"testing"
)

// delegated holds, per mutant, the output of its TestMutants subtest.
var delegated sync.Map

// Require reports whether t runs with the mutant called name applied, which
// TestMutants signals through REPRO_MUTANT. If not, it runs the mutant's
// TestMutants subtest instead, once per test binary, fails t unless t is one
// of the mutant's needs and passed there, and returns false: the caller
// returns at once. So a need passes on the plain tree, never skips.
func Require(t *testing.T, name string) bool {
	t.Helper()
	if os.Getenv("REPRO_MUTANT") == name {
		return true
	}
	out, ok := delegated.Load(name)
	if !ok {
		cmd := exec.Command("go", "test", "-count=1", "-v", "-run", "^TestMutants$/^"+name+"$", "repro/internal/mutants")
		b, _ := cmd.CombinedOutput() // a failed run lacks the line below
		out, _ = delegated.LoadOrStore(name, b)
	}
	if !bytes.Contains(out.([]byte), []byte(" "+t.Name()+" passes under the mutant\n")) {
		t.Fatalf("%s did not pass under mutant %s, or is not among its needs in mutants.json:\n%s", t.Name(), name, out)
	}
	return false
}
