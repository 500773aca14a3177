// Package directive parses the suppression directive understood by the
// invariant linter suite:
//
//	//lint:<rule>-ok <reason>   suppress the named rule on this line or the next
//
// A suppression must carry a non-empty reason; the analyzers report bare
// directives as violations in their own right, so every waiver is
// self-documenting.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppressions maps source lines to the reasons attached to one rule's
// //lint:<rule>-ok directives in one file.
type Suppressions struct {
	fset *token.FileSet
	// reason is keyed by the line the directive appears on. The empty
	// string marks a directive with a missing reason.
	reason map[int]string
	// bare holds positions of reason-less directives, to be reported.
	bare []token.Pos
}

// ForRule collects the suppressions for rule in file.
func ForRule(fset *token.FileSet, file *ast.File, rule string) *Suppressions {
	s := &Suppressions{fset: fset, reason: make(map[int]string)}
	prefix := "//lint:" + rule + "-ok"
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := c.Text[len(prefix):]
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:foo-okay — different token
			}
			line := fset.Position(c.Pos()).Line
			reason := strings.TrimSpace(rest)
			s.reason[line] = reason
			if reason == "" {
				s.bare = append(s.bare, c.Pos())
			}
		}
	}
	return s
}

// Suppressed reports whether a diagnostic at pos is waived: a directive
// sits on the same line (trailing comment) or on the line immediately
// above (its own line).
func (s *Suppressions) Suppressed(pos token.Pos) bool {
	line := s.fset.Position(pos).Line
	if _, ok := s.reason[line]; ok {
		return true
	}
	_, ok := s.reason[line-1]
	return ok
}

// Bare returns the positions of directives missing a reason. Analyzers
// report these so a waiver can never be anonymous.
func (s *Suppressions) Bare() []token.Pos { return s.bare }
