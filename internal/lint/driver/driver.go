// Package driver loads Go packages and runs the repository's analyzers
// over them, without depending on golang.org/x/tools.
//
// Two loading modes share the analysis core:
//
//   - Standalone: Analyze shells out to `go list -export -json -deps`,
//     type-checks every non-dependency package from source against the
//     export data the go command produced, and runs every analyzer.
//     This is what `analyze ./...` does.
//
//   - Unitchecker: RunConfig consumes the JSON .cfg file that `go vet
//     -vettool` hands the tool for a single package, using the
//     ImportMap/PackageFile tables from the config instead of invoking
//     the go command. This is what makes `go vet -vettool=analyze`
//     work.
//
// Both modes resolve imports with the stdlib gc importer fed by a
// lookup over compiled export files, so no network or source checkout
// of dependencies is needed.
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
	"repro/internal/lint/hotalloc"
	"repro/internal/lint/poolpair"
	"repro/internal/lint/simdeterminism"
	"repro/internal/lint/statcount"
)

// Analyzers returns the full suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hotalloc.Analyzer,
		poolpair.Analyzer,
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
	Incomplete bool
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

	imp := newExportImporter(func(path string) string { return exports[path] })
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
	sortDiags(diags)
	return diags, nil
}

// Config mirrors the JSON configuration cmd/go writes for vet tools.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunConfig executes the suite for one vet unit described by cfgFile.
// It always writes the VetxOutput facts file (empty; the suite exports
// no facts) so cmd/go's caching contract holds.
func RunConfig(cfgFile string) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %v", cfgFile, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly || len(cfg.GoFiles) == 0 {
		return nil, nil
	}
	imp := newExportImporter(func(path string) string {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		return cfg.PackageFile[path]
	})
	diags, err := checkAndRun(imp, cfg.ImportPath, cfg.GoFiles, Analyzers())
	if err != nil && cfg.SucceedOnTypecheckFailure {
		return nil, nil
	}
	sortDiags(diags)
	return diags, err
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

func sortDiags(diags []Diagnostic) {
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
}

// exportImporter resolves imports through compiled export data files,
// as produced by `go list -export` or recorded in a vet config.
type exportImporter struct {
	gc   types.ImporterFrom
	find func(path string) string
}

func newExportImporter(find func(path string) string) *exportImporter {
	ei := &exportImporter{find: find}
	fset := token.NewFileSet()
	ei.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := find(path)
		if file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.gc.ImportFrom(path, "", 0)
}

func (ei *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return ei.gc.ImportFrom(path, dir, mode)
}
