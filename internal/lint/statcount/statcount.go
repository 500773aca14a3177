// Package statcount enforces the silent-drop accounting rule: when a wire
// decode fails, somebody must either account for the drop or pass the
// error on — a malformed datagram that simply vanishes is indistinguishable
// from a lost one, and the campaign reports depend on the distinction
// (Stats.ParseErrors, Replica CertDrops).
//
// The analyzer inspects every call to a decode-shaped function — an
// unexported parse* helper, an exported Unmarshal*/Peek* function, or an
// exported Parse* function that takes a []byte (xgroup's relay and stream
// parsers; strconv.ParseInt and the like take strings and stay out) — that
// returns an error, and requires the caller's error path to do one of:
//
//   - propagate: return (or wrap and return) the error,
//   - account: increment a counter (s.stats.ParseErrors++, r.drops++,
//     x.n += 1, atomic.AddInt64),
//   - abort loudly: panic or log.Fatal.
//
// Discarding the error into _, dropping the whole result list, or an
// error branch that returns without any of the above is reported.
//
// Waive a line with //lint:statcount-ok <reason>.
package statcount

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astq"
	"repro/internal/lint/directive"
)

const name = "statcount"

// Analyzer is the statcount pass.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "require error paths of wire Unmarshal/parse calls to count the drop or propagate the error",
	Run:  run,
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
			checkFunc(pass, report, fd)
			return true
		})
	}
	return nil
}

// isDecodeCall reports whether the call is decode-shaped with an error as
// its final result.
func isDecodeCall(info *types.Info, call *ast.CallExpr) bool {
	fn := astq.Callee(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	n := fn.Name()
	switch {
	case strings.HasPrefix(n, "parse"), strings.HasPrefix(n, "Unmarshal"), strings.HasPrefix(n, "Peek"):
	case strings.HasPrefix(n, "Parse") && takesBytes(sig):
	default:
		return false
	}
	return astq.IsErrorType(sig.Results().At(sig.Results().Len() - 1).Type())
}

// takesBytes reports whether any parameter is a []byte.
func takesBytes(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if sl, ok := sig.Params().At(i).Type().Underlying().(*types.Slice); ok {
			if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, report func(token.Pos, string, ...any), fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// Walk statements block by block so the guard following a call is
	// visible.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		list := stmtList(n)
		if list == nil {
			return true
		}
		for i, st := range list {
			switch st := st.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok && isDecodeCall(info, call) {
					report(call.Pos(), "decode result of %s discarded: count the drop or handle the error", astq.CalleeName(call))
				}
			case *ast.AssignStmt:
				checkAssign(info, report, fd, st, list, i)
			case *ast.IfStmt:
				// if err := parse(b); err != nil { ... }
				if init, ok := st.Init.(*ast.AssignStmt); ok {
					checkAssignInIf(info, report, fd, init, st)
				}
			}
		}
		return true
	})
}

// errObjOfAssign returns the error object a decode call's result is bound
// to, or a marker that it was blanked.
func errObjOfAssign(info *types.Info, as *ast.AssignStmt) (types.Object, *ast.CallExpr, bool) {
	if len(as.Rhs) != 1 {
		return nil, nil, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !isDecodeCall(info, call) {
		return nil, nil, false
	}
	last := as.Lhs[len(as.Lhs)-1]
	id, ok := last.(*ast.Ident)
	if !ok {
		return nil, call, false
	}
	if id.Name == "_" {
		return nil, call, true // blanked
	}
	return astq.Obj(info, id), call, false
}

func checkAssign(info *types.Info, report func(token.Pos, string, ...any), fd *ast.FuncDecl, as *ast.AssignStmt, list []ast.Stmt, idx int) {
	errObj, call, blanked := errObjOfAssign(info, as)
	if call == nil {
		return
	}
	if blanked {
		report(call.Pos(), "decode error of %s discarded into _: count the drop or handle the error", astq.CalleeName(call))
		return
	}
	if errObj == nil {
		return
	}
	// Find the guard: the next statement mentioning the error object.
	for j := idx + 1; j < len(list); j++ {
		st := list[j]
		ifst, ok := st.(*ast.IfStmt)
		if ok && mentionsObj(info, ifst.Cond, errObj) {
			checkGuard(info, report, call, ifst, errObj)
			return
		}
		if isBlankAssign(st) {
			continue // _ = err silences the compiler, not this analyzer
		}
		if mentionsStmt(info, st, errObj) {
			return // handled some other way; assume good
		}
	}
	report(call.Pos(), "decode error of %s is never checked: count the drop or handle the error", astq.CalleeName(call))
}

func checkAssignInIf(info *types.Info, report func(token.Pos, string, ...any), fd *ast.FuncDecl, as *ast.AssignStmt, ifst *ast.IfStmt) {
	errObj, call, blanked := errObjOfAssign(info, as)
	if call == nil {
		return
	}
	if blanked {
		report(call.Pos(), "decode error of %s discarded into _: count the drop or handle the error", astq.CalleeName(call))
		return
	}
	if errObj == nil || !mentionsObj(info, ifst.Cond, errObj) {
		return
	}
	checkGuard(info, report, call, ifst, errObj)
}

// checkGuard inspects the error branch of an if guard.
func checkGuard(info *types.Info, report func(token.Pos, string, ...any), call *ast.CallExpr, ifst *ast.IfStmt, errObj types.Object) {
	var branch ast.Node
	switch guardKind(ifst.Cond, info, errObj) {
	case "!=":
		branch = ifst.Body
	case "==":
		branch = ifst.Else // may be nil
	default:
		return // unusual guard; give the benefit of the doubt
	}
	if branch == nil {
		// if err == nil { happy } with no else: the error evaporates.
		report(call.Pos(), "decode error of %s has no error branch: count the drop or handle the error", astq.CalleeName(call))
		return
	}
	if branchAccounts(info, branch, errObj) {
		return
	}
	report(call.Pos(), "error path of %s drops the message silently: increment a Stats counter or propagate the error", astq.CalleeName(call))
}

// guardKind classifies the condition as err != nil or err == nil.
func guardKind(cond ast.Expr, info *types.Info, errObj types.Object) string {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return ""
	}
	isErr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && astq.Obj(info, id) == errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if (isErr(be.X) && isNil(be.Y)) || (isErr(be.Y) && isNil(be.X)) {
		switch be.Op {
		case token.NEQ:
			return "!="
		case token.EQL:
			return "=="
		}
	}
	return ""
}

// branchAccounts reports whether the error branch propagates, counts, or
// aborts loudly.
func branchAccounts(info *types.Info, branch ast.Node, errObj types.Object) bool {
	ok := false
	ast.Inspect(branch, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsObj(info, res, errObj) {
					ok = true
					return false
				}
			}
		case *ast.IncDecStmt:
			if n.Tok == token.INC {
				if _, isSel := ast.Unparen(n.X).(*ast.SelectorExpr); isSel {
					ok = true
					return false
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN {
				if _, isSel := ast.Unparen(n.Lhs[0]).(*ast.SelectorExpr); isSel {
					ok = true
					return false
				}
			}
		case *ast.CallExpr:
			switch nm := astq.CalleeName(n); {
			case nm == "panic", nm == "Fatal", nm == "Fatalf":
				ok = true
				return false
			case strings.HasPrefix(nm, "Add"): // atomic.AddInt64 and kin
				if fn := astq.Callee(info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
					ok = true
					return false
				}
			}
		}
		return true
	})
	return ok
}

func mentionsObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && astq.Obj(info, id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

func mentionsStmt(info *types.Info, st ast.Stmt, obj types.Object) bool {
	return mentionsObj(info, st, obj)
}

// isBlankAssign matches `_ = x` style statements.
func isBlankAssign(st ast.Stmt) bool {
	as, ok := st.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN {
		return false
	}
	for _, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

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
