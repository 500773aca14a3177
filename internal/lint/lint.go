// Package lint holds the repository's two invariant checks and the one
// loader that runs them, without depending on golang.org/x/tools:
//
//   - simdeterminism (simdeterminism.go): no host clock, global rand, raw
//     goroutine or order-sensitive map walk in the deterministic packages;
//   - statcount (statcount.go): every error path of a wire decode counts the
//     drop or passes the error on.
//
// Analyze shells out to `go list -export -json -deps`, type-checks every
// matched package from source against the export data the go command
// produced, and runs both rules. Imports resolve through the stdlib gc
// importer fed by those export files, so nothing outside the standard
// library is needed. `go list` names only non-test files, so test files are
// never checked. TestAnalyzeCleanTree runs Analyze over the module; the
// fixture tests run it over the fixture module in testdata.
//
// A finding is waived, per rule and per line, by
//
//	//lint:<rule>-ok <reason>
//
// which waives its own line and, when nothing but whitespace precedes it on
// that line, the next one too. A directive without a reason is itself a
// finding, so every waiver says why.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// pass is one type-checked package handed to a rule.
type pass struct {
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	path  string // import path
	// report records a finding unless a waiver covers its line.
	report func(pos token.Pos, format string, args ...any)
}

// rules are the checks Analyze runs, under the names their findings and
// waivers carry.
var rules = []struct {
	name  string
	check func(*pass)
}{
	{"simdeterminism", simdeterminism},
	{"statcount", statcount},
}

// Diagnostic is one finding.
type Diagnostic struct {
	Rule     string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Rule)
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Analyze loads the packages matching patterns (relative to dir) and runs
// both rules, returning the findings sorted by position.
func Analyze(dir string, patterns ...string) ([]Diagnostic, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}

	exports := map[string]string{}
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}

	// The gc importer reads the compiled export data `go list -export` named.
	imp := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var diags []Diagnostic
	for _, p := range targets {
		ds, err := checkPackage(imp, p)
		if err != nil {
			return diags, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		diags = append(diags, ds...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Offset != b.Position.Offset {
			return a.Position.Offset < b.Position.Offset
		}
		return a.Rule < b.Rule
	})
	return diags, nil
}

// checkPackage parses and type-checks one package, then runs both rules.
func checkPackage(imp types.Importer, p listPackage) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, len(p.GoFiles))
	srcs := make([][]byte, len(p.GoFiles))
	for i, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if files[i], err = parser.ParseFile(fset, path, src, parser.ParseComments|parser.SkipObjectResolution); err != nil {
			return nil, err
		}
		srcs[i] = src
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
		return nil, err
	}

	var diags []Diagnostic
	for _, r := range rules {
		add := func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{Rule: r.name, Position: fset.Position(pos), Message: fmt.Sprintf(format, args...)})
		}
		waived := map[*token.File]map[int]bool{}
		for i, f := range files {
			waived[fset.File(f.Pos())] = waivers(fset, f, srcs[i], r.name, add)
		}
		r.check(&pass{fset: fset, files: files, info: info, path: p.ImportPath,
			report: func(pos token.Pos, format string, args ...any) {
				tf := fset.File(pos)
				if !waived[tf][tf.Line(pos)] {
					add(pos, format, args...)
				}
			}})
	}
	return diags, nil
}

// waivers returns the lines of f one rule's //lint:<rule>-ok directives
// waive, and reports each directive that gives no reason. A directive waives
// its own line, and the next one only when it stands alone on its line: a
// trailing waiver never reaches the statement below it.
func waivers(fset *token.FileSet, f *ast.File, src []byte, rule string, report func(token.Pos, string, ...any)) map[int]bool {
	prefix := "//lint:" + rule + "-ok"
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, prefix)
			if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // not a directive, or another token such as -okay
			}
			if strings.TrimSpace(rest) == "" {
				report(c.Pos(), "//lint:%s-ok directive requires a reason", rule)
			}
			tf := fset.File(c.Pos())
			line := tf.Line(c.Pos())
			lines[line] = true
			if len(bytes.TrimSpace(src[tf.Offset(tf.LineStart(line)):tf.Offset(c.Pos())])) == 0 {
				lines[line+1] = true
			}
		}
	}
	return lines
}

// callee resolves the function or method a call invokes, or nil for
// builtins, conversions and calls of function values.
func (p *pass) callee(call *ast.CallExpr) *types.Func {
	fn, _ := p.info.Uses[calleeIdent(call)].(*types.Func)
	return fn
}

// calleeName is the bare name of the called function or method, or "" when
// the callee is not named (a func literal, a call result). Unlike callee it
// also covers names that do not resolve to a *types.Func, such as builtins.
func calleeName(call *ast.CallExpr) string {
	if id := calleeIdent(call); id != nil {
		return id.Name
	}
	return ""
}

func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// isBuiltin reports whether the call invokes the named Go builtin.
func (p *pass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.info.Uses[id].(*types.Builtin)
	return ok
}

// rootIdent walks to the base identifier of a chain of selector, index,
// slice, star and paren expressions: the x in x.f[i].g. It returns nil when
// the base is not a plain identifier (a call result, say).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
