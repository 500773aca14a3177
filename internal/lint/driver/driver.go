// Package driver loads Go packages and runs the repository's analyzers
// over them, without depending on golang.org/x/tools.
//
// Analyze shells out to `go list -export -json -deps`, type-checks every
// non-dependency package from source against the export data the go
// command produced, and runs every analyzer. Imports resolve through the
// stdlib gc importer fed by a lookup over those export files, so no
// network or source checkout of dependencies is needed. The suite's one
// entry point is this package's TestAnalyzeCleanTree.
package driver

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

	"repro/internal/lint/analysis"
	"repro/internal/lint/simdeterminism"
	"repro/internal/lint/statcount"
)

// Analyzers returns the full suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simdeterminism.Analyzer,
		statcount.Analyzer,
	}
}

// Diagnostic is a finding tagged with its analyzer and rendered position.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Position, d.Message, d.Analyzer)
}

// listPackage is the subset of `go list -json` output the driver needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Analyze loads the packages matching patterns (relative to dir) and
// runs the suite, returning diagnostics sorted by position.
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
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		ds, err := checkAndRun(imp, p.ImportPath, files, Analyzers())
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
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// checkAndRun parses and type-checks one package, then runs the suite.
func checkAndRun(imp types.Importer, importPath string, files []string, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
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
		Error:    func(error) {}, // collect everything; Check returns the first
	}
	pkg, typeErr := conf.Check(importPath, fset, parsed, info)
	if pkg == nil {
		return nil, typeErr
	}

	found, err := analysis.RunAll(analyzers, analysis.Pass{
		Fset:      fset,
		Files:     parsed,
		Pkg:       pkg,
		TypesInfo: info,
	})
	if err != nil {
		return nil, err
	}
	diags := make([]Diagnostic, len(found))
	for i, d := range found {
		diags[i] = Diagnostic{
			Analyzer: d.Category,
			Position: fset.Position(d.Pos),
			Message:  d.Message,
		}
	}
	return diags, typeErr
}
