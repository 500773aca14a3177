// Package poolpair enforces pooled-object lifecycles. The repository
// recycles hot-path objects through get/put pairs, and the pairing is a
// contract the type system cannot see:
//
// Get/Put on a sync.Pool or a sim.FreeList, and the named wrappers that add
// behaviour — the reliable layer's newMsg/recycleMsg (pooled dataMsg
// structs) and newBody/recycleBody (reassembly buffers), simnet's
// newPacket/release (refcounted packets). A value obtained from the pool
// must, on every path out of the function, either be handed back with the
// matching put, be handed off to another function (scheduling it, storing
// it into a receive buffer — the owner recycles later), or be returned to
// the caller. A return path that does none of these strands the object:
// the pool drains and the "pooled" allocation quietly becomes a real one.
//
// Free-list slices — a field named free* popped by reslicing
// (x.free = x.free[:n-1]) outside package sim is reported: sim.FreeList is
// the one place that idiom, its slot clearing and its refill are written.
//
// Storing a pooled value into a package-level variable is flagged
// unconditionally: the pool's lifetime discipline cannot follow a global.
//
// Waive a line with //lint:poolpair-ok <reason>.
package poolpair

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astq"
	"repro/internal/lint/directive"
)

const name = "poolpair"

// Analyzer is the poolpair pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "enforce pooled-object get/put pairing and free-list hygiene",
	Run:  run,
}

// pairs maps a pool-get method name to its matching put method names. An
// empty put list means only hand-off or return discharges the obligation.
var pairs = map[string][]string{
	"Get":       {"Put"},
	"newMsg":    {"recycleMsg"},
	"newBody":   {"recycleBody"},
	"newPacket": {"release"},
	"newJob":    {},
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		sup := directive.ForRule(pass.Fset, file, name)
		for _, pos := range sup.Bare() {
			pass.Reportf(pos, "//lint:%s-ok directive requires a reason", name)
		}
		report := func(pos token.Pos, format string, args ...any) {
			if !sup.Suppressed(pos) {
				pass.Reportf(pos, format, args...)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkGets(pass, report, fd)
			if pass.Pkg.Name() != "sim" {
				checkHandRolled(pass.TypesInfo, report, fd)
			}
			return true
		})
	}
	return nil
}

// getCall matches v := p.GET() (optionally through a type assertion) and
// returns the pooled object and the pool receiver expression.
func getCall(info *types.Info, st ast.Stmt) (obj types.Object, getName string, pos token.Pos) {
	as, ok := st.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, "", token.NoPos
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, "", token.NoPos
	}
	rhs := ast.Unparen(as.Rhs[0])
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = ast.Unparen(ta.X)
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil, "", token.NoPos
	}
	fn := astq.Callee(info, call)
	if fn == nil {
		return nil, "", token.NoPos
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", token.NoPos
	}
	if _, isPair := pairs[fn.Name()]; !isPair {
		return nil, "", token.NoPos
	}
	if fn.Name() == "Get" && !isPool(sig.Recv().Type()) {
		return nil, "", token.NoPos
	}
	return astq.Obj(info, id), fn.Name(), as.Pos()
}

// isPool reports whether t is (a pointer to) a sync.Pool or a sim.FreeList.
func isPool(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Name() + "." + named.Obj().Name() {
	case "sync.Pool", "sim.FreeList":
		return true
	}
	return false
}

// checkGets applies the get/put pairing rule to one function.
func checkGets(pass *analysis.Pass, report func(token.Pos, string, ...any), fd *ast.FuncDecl) {
	info := pass.TypesInfo
	parents := buildParents(fd.Body)

	var gets []struct {
		obj  types.Object
		name string
		pos  token.Pos
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		if obj, gname, pos := getCall(info, st); obj != nil {
			gets = append(gets, struct {
				obj  types.Object
				name string
				pos  token.Pos
			}{obj, gname, pos})
		}
		return true
	})

	for _, g := range gets {
		puts := pairs[g.name]

		// A deferred put or hand-off discharges every path at once.
		deferred := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok && resolves(info, d.Call, g.obj, puts) {
				deferred = true
			}
			return true
		})
		if deferred {
			continue
		}

		// Stores into package-level state are flagged outright.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(as.Rhs) != len(as.Lhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); !ok || astq.Obj(info, id) != g.obj {
					continue
				}
				if root := astq.RootIdent(as.Lhs[i]); root != nil {
					if o := astq.Obj(info, root); o != nil && isPackageLevel(o) {
						report(as.Pos(), "pooled value from %s stored into package-level %q: the pool cannot reclaim it", g.name, root.Name)
					}
				}
			}
			return true
		})

		// Every return path after the get must be discharged.
		var returns []*ast.ReturnStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if r, ok := n.(*ast.ReturnStmt); ok && r.Pos() > g.pos {
				returns = append(returns, r)
			}
			return true
		})
		for _, r := range returns {
			if returnDischarges(info, r, g.obj) {
				continue
			}
			if !pathHasResolution(info, parents, fd.Body, r, g.pos, g.obj, puts) {
				report(r.Pos(), "return without releasing pooled value from %s (no %s, hand-off, or return of it on this path)",
					g.name, putLabel(puts))
			}
		}
		// Fall-through off the end of the function body.
		if len(fd.Body.List) > 0 && !astq.Terminates(fd.Body.List[len(fd.Body.List)-1]) {
			if !anyResolutionAfter(info, fd.Body, g.pos, g.obj, puts) {
				report(fd.Body.Rbrace, "function ends without releasing pooled value from %s", g.name)
			}
		}
	}
}

func putLabel(puts []string) string {
	if len(puts) == 0 {
		return "recycle"
	}
	return strings.Join(puts, "/")
}

// resolves reports whether the call discharges the pooled obj: a matching
// put with obj as argument, or any call taking obj (hand-off).
func resolves(info *types.Info, call *ast.CallExpr, obj types.Object, puts []string) bool {
	for _, arg := range call.Args {
		if root := astq.RootIdent(arg); root != nil && astq.Obj(info, root) == obj {
			return true
		}
	}
	return false
}

// nodeResolves searches a subtree for any discharge of obj: a call passing
// it, a store of it through a selector/index (hand-off to a live
// structure), or a return of it.
func nodeResolves(info *types.Info, n ast.Node, obj types.Object, puts []string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if resolves(info, n, obj, puts) {
				found = true
				return false
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && astq.Obj(info, id) == obj {
					found = true
					return false
				}
			}
		case *ast.ReturnStmt:
			if returnDischarges(info, n, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func returnDischarges(info *types.Info, r *ast.ReturnStmt, obj types.Object) bool {
	for _, res := range r.Results {
		ok := false
		ast.Inspect(res, func(n ast.Node) bool {
			if id, okk := n.(*ast.Ident); okk && astq.Obj(info, id) == obj {
				ok = true
				return false
			}
			return true
		})
		if ok {
			return true
		}
	}
	return false
}

// pathHasResolution walks the dominator chain of stmt — the statements
// that textually precede it in its own block and in every enclosing block
// up to the function body — looking for a discharge of obj after the get.
func pathHasResolution(info *types.Info, parents map[ast.Node]ast.Node, body *ast.BlockStmt, stmt ast.Stmt, getPos token.Pos, obj types.Object, puts []string) bool {
	var cur ast.Node = stmt
	for cur != nil && cur != body {
		parent := parents[cur]
		if list := stmtList(parent); list != nil {
			for _, s := range list {
				if s == cur {
					break
				}
				if s.End() <= getPos {
					continue
				}
				if nodeResolves(info, s, obj, puts) {
					return true
				}
			}
		}
		cur = parent
	}
	return false
}

// anyResolutionAfter searches the whole body for a discharge after pos.
func anyResolutionAfter(info *types.Info, body *ast.BlockStmt, pos token.Pos, obj types.Object, puts []string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if st, ok := n.(ast.Stmt); ok && st.Pos() > pos && nodeResolves(info, st, obj, puts) {
			found = true
			return false
		}
		return true
	})
	return found
}

// stmtList returns the child statement list of a block-bearing node.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// buildParents maps every node to its parent within the subtree.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

func isPackageLevel(o types.Object) bool {
	return o.Parent() == o.Pkg().Scope()
}

// checkHandRolled reports a free* slice field popped by reslicing.
func checkHandRolled(info *types.Info, report func(token.Pos, string, ...any), fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		field := freeListField(info, as.Lhs[0])
		if field == nil {
			return true
		}
		if sl, ok := ast.Unparen(as.Rhs[0]).(*ast.SliceExpr); ok && sameField(info, sl.X, field) {
			report(as.Pos(), "free list %s is popped by hand: use sim.FreeList", field.Name())
		}
		return true
	})
}

// freeListField matches a selector x.freeY of slice type and returns the
// field object.
func freeListField(info *types.Info, e ast.Expr) types.Object {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	lower := strings.ToLower(sel.Sel.Name)
	if !strings.HasPrefix(lower, "free") {
		return nil
	}
	obj := astq.Obj(info, sel.Sel)
	if obj == nil {
		return nil
	}
	if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	if _, ok := obj.(*types.Var); !ok || !obj.(*types.Var).IsField() {
		return nil
	}
	return obj
}

// sameField reports whether e is a selector resolving to field.
func sameField(info *types.Info, e ast.Expr, field types.Object) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && astq.Obj(info, sel.Sel) == field
}
