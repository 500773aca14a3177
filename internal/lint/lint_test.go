package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestAnalyzeCleanTree is the suite's one entry point over the real code: it
// runs both rules over the whole module, so tier-1 (go test ./...) fails on a
// host-clock read, order-sensitive map iteration or an uncounted drop in
// product code, and prints every finding with its position.
func TestAnalyzeCleanTree(t *testing.T) {
	diags, err := Analyze(".", "repro/...")
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

// The fixture tests check one directory each of the fixture module in
// testdata (module fixture, standard-library imports only), which Analyze
// loads once, exactly as it loads the real tree.

func TestDeterministicPackage(t *testing.T) { checkFixture(t, "sim") }
func TestExemptPackage(t *testing.T)        { checkFixture(t, "other") }
func TestXGroupPackage(t *testing.T)        { checkFixture(t, "xgroup") }

// TestMainPackage covers a command: package main under a directory named in
// the deterministic set.
func TestMainPackage(t *testing.T) { checkFixture(t, "cmd/faultsim") }

func TestSilentDropAccounting(t *testing.T) { checkFixture(t, "statcount") }

// TestBareDirective: a reason-less waiver is one finding, at the directive,
// and still waives its line.
func TestBareDirective(t *testing.T) {
	got := fixtureFindings(t, "db")
	if len(got) != 1 || !strings.Contains(got[0].Message, "requires a reason") {
		t.Fatalf("want exactly the bare-directive finding, got %v", got)
	}
}

var analyzeFixture = sync.OnceValues(func() ([]Diagnostic, error) {
	return Analyze("testdata", "./...")
})

// fixtureFindings returns the findings in testdata/<dir>.
func fixtureFindings(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	all, err := analyzeFixture()
	if err != nil {
		t.Fatalf("Analyze(testdata): %v", err)
	}
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	var got []Diagnostic
	for _, d := range all {
		if filepath.Dir(d.Position.Filename) == abs {
			got = append(got, d)
		}
	}
	return got
}

// checkFixture matches the findings in testdata/<dir> against the
// expectations written in its files: a comment `// want "re" ...` — or
// `/* want ... */`, where a line comment cannot end the line — expects one
// finding on its line per quoted regexp. A finding no expectation matches,
// and an expectation no finding matches, fail the test.
func checkFixture(t *testing.T, dir string) {
	t.Helper()
	type want struct {
		at  string // file:line
		re  *regexp.Regexp
		hit bool
	}
	var wants []*want
	files, err := filepath.Glob(filepath.Join("testdata", dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		abs, err := filepath.Abs(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, abs, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/")
				rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
				pos := fset.Position(c.Pos())
				for rest = strings.TrimSpace(rest); ok && rest != ""; rest = strings.TrimSpace(rest) {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s: malformed want list %q", pos, rest)
					}
					rest = rest[len(q):]
					s, _ := strconv.Unquote(q)
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", pos, err)
					}
					wants = append(wants, &want{at: fmt.Sprintf("%s:%d", pos.Filename, pos.Line), re: re})
				}
			}
		}
	}
	for _, d := range fixtureFindings(t, dir) {
		at := fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)
		matched := false
		for _, w := range wants {
			if !w.hit && w.at == at && w.re.MatchString(d.Message) {
				w.hit, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s: no finding matches %q", w.at, w.re)
		}
	}
}
