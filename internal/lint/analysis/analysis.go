// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API surface used by this repository's
// invariant linters. The module is built offline (no external
// dependencies), so the framework is reimplemented here: an Analyzer is a
// named check, a Pass hands it one type-checked package, and diagnostics
// flow back through Pass.Report. Analyzers in this tree are package-local
// (no cross-package facts), which keeps the driver protocol trivial.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the
	// //lint:<name>-ok suppression directive.
	Name string
	// Doc is the analyzer's help text. The first line is a one-sentence
	// summary.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
}

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver fills it in.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// RunAll applies every analyzer to the package described by the template
// pass (Report in the template is ignored) and returns the diagnostics
// sorted by position. It is the single entry point shared by the fixture
// harness (linttest) and the driver.
func RunAll(analyzers []*Analyzer, tmpl Pass) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := tmpl
		pass.Analyzer = a
		pass.Report = func(d Diagnostic) {
			if d.Category == "" {
				d.Category = a.Name
			}
			diags = append(diags, d)
		}
		if err := a.Run(&pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// IsTestFile reports whether pos lies in a _test.go file. The invariant
// suite targets production code; test files may freely use wall clocks,
// goroutines, and unsorted iteration.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}
