package mutants

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/golden"
)

// A test is named by its package, relative to the repository, and its name
// as go test prints it, a subtest's with its parents'.
type test struct {
	Pkg string `json:"pkg"`
	Run string `json:"run"`
}

// mutant is one record of testdata/mutants.json: the edit that reopens a
// bug, why the bug is plausible, the tests that must fail while it is open
// (killers) and the self-tests that must pass only then (needs).
type mutant struct {
	Name    string `json:"name"`
	File    string `json:"file"`
	Old     string `json:"old"`
	New     string `json:"new"`
	Why     string `json:"why"`
	Killers []test `json:"killers"`
	Needs   []test `json:"needs"`
}

// root is the repository, two levels above this package.
const root = "../.."

var mutantName = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)

func load(t *testing.T) []mutant {
	t.Helper()
	f, err := os.Open("testdata/mutants.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var ms []mutant
	if err := dec.Decode(&ms); err != nil {
		t.Fatalf("mutants.json: %v", err)
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if !mutantName.MatchString(m.Name) || seen[m.Name] {
			t.Fatalf("mutants.json: name %q is not a fresh lower-case-hyphenated name", m.Name)
		}
		seen[m.Name] = true
		if m.File == "" || m.Old == "" || m.Why == "" || len(m.Killers) == 0 {
			t.Fatalf("mutant %s: file, old, why and at least one killer are required", m.Name)
		}
	}
	return ms
}

// apply returns m.File's source with m's edit made, or an error naming m when
// its old snippet no longer matches exactly once.
func apply(m mutant) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, m.File))
	if err != nil {
		return nil, fmt.Errorf("mutant %s: %w", m.Name, err)
	}
	if n := bytes.Count(src, []byte(m.Old)); n != 1 {
		return nil, fmt.Errorf("mutant %s: old snippet matches %s %d times, want exactly once", m.Name, m.File, n)
	}
	return bytes.Replace(src, []byte(m.Old), []byte(m.New), 1), nil
}

// TestMutants applies each mutant in turn through a build overlay and runs,
// per package, its killers and needs in one child `go test -v` with
// REPRO_MUTANT naming it. A killer must print `--- FAIL`, a need `--- PASS`.
// A subtest runs with all of its top-level test.
// The child builds without -race, whatever flags this test has. Each
// killer's outcome goes to testdata/kills.golden, so a surviving mutant shows
// in the diff.
func TestMutants(t *testing.T) {
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	statTree(t)
	ms := load(t)
	var kills bytes.Buffer
	ran := 0
	for _, m := range ms {
		t.Run(m.Name, func(t *testing.T) {
			ran++
			src, err := apply(m)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			mutated, overlay := filepath.Join(dir, filepath.Base(m.File)), filepath.Join(dir, "overlay.json")
			b, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(abs, m.File): mutated}})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(mutated, src, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(overlay, b, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, pkg := range packages(m) {
				out := childTest(t, m, overlay, pkg)
				for _, k := range m.Killers {
					if k.Pkg != pkg {
						continue
					}
					verdict := "SURVIVED"
					if reported(out, "FAIL", k.Run) {
						verdict = "killed"
					} else {
						t.Errorf("killer %s %s passed with the mutant applied", pkg, k.Run)
					}
					fmt.Fprintf(&kills, "%s %s %s %s\n", m.Name, pkg, k.Run, verdict)
				}
				for _, n := range m.Needs {
					if n.Pkg != pkg {
						continue
					}
					if !reported(out, "PASS", n.Run) {
						t.Errorf("need %s %s did not pass with the mutant applied:\n%s", pkg, n.Run, out)
						continue
					}
					t.Logf("%s %s passes under the mutant", pkg, n.Run)
				}
			}
		})
	}
	if ran == len(ms) {
		golden.Check(t, "testdata/kills.golden", kills.Bytes())
	}
}

// statTree stats every Go file of the repository. The child runs depend on
// all of them and this test's binary on none, so this is what keys go test's
// result cache to the tree.
func statTree(t *testing.T) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tests lists m's killers, then its needs.
func (m mutant) tests() []test { return append(slices.Clone(m.Killers), m.Needs...) }

// packages lists the packages of m's tests, each once, in order.
func packages(m mutant) []string {
	var pkgs []string
	for _, x := range m.tests() {
		if !slices.Contains(pkgs, x.Pkg) {
			pkgs = append(pkgs, x.Pkg)
		}
	}
	return pkgs
}

// childTest runs m's killers and needs in pkg under the overlay and returns
// the verbose output. A build failure fails t: the mutant does not compile.
func childTest(t *testing.T, m mutant, overlay, pkg string) []byte {
	t.Helper()
	var runs []string
	for _, x := range m.tests() {
		top, _, _ := strings.Cut(x.Run, "/")
		if top = regexp.QuoteMeta(top); x.Pkg == pkg && !slices.Contains(runs, top) {
			runs = append(runs, top)
		}
	}
	cmd := exec.Command("go", "test", "-overlay", overlay, "-count=1", "-vet=off", "-v",
		"-run", "^("+strings.Join(runs, "|")+")$", pkg)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "REPRO_MUTANT="+m.Name)
	out, err := cmd.CombinedOutput()
	if bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")) {
		t.Fatalf("mutant %s does not compile in %s:\n%s", m.Name, pkg, out)
	}
	if err != nil && !bytes.Contains(out, []byte("\n--- FAIL: ")) {
		t.Fatalf("%s under mutant %s: %v\n%s", pkg, m.Name, err, out)
	}
	return append([]byte("\n"), out...)
}

// reported says whether verbose go test output shows the test called name,
// top-level or subtest, ending with verdict.
func reported(out []byte, verdict, name string) bool {
	return regexp.MustCompile(`\n *--- ` + verdict + `: ` + regexp.QuoteMeta(name) + ` \(`).Match(out)
}

// TestStaleSnippetFailsByName: an old snippet edited by one character no
// longer matches, and the harness names the mutant it belongs to.
func TestStaleSnippetFailsByName(t *testing.T) {
	for _, m := range load(t) {
		if _, err := apply(m); err != nil {
			t.Fatal(err)
		}
		i := len(m.Old) / 2
		m.Old = m.Old[:i] + "\x00" + m.Old[i+1:]
		if _, err := apply(m); err == nil || !strings.Contains(err.Error(), "mutant "+m.Name+":") {
			t.Errorf("mutant %s: one character off, apply returned %v", m.Name, err)
		}
	}
}
