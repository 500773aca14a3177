package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// statcount enforces the silent-drop accounting rule: when a wire decode
// fails, somebody must either account for the drop or pass the error on — a
// malformed datagram that simply vanishes is indistinguishable from a lost
// one, and the campaign reports depend on the distinction (Stats.ParseErrors,
// Replica CertDrops).
//
// The rule inspects every call to a decode-shaped function — an unexported
// parse* helper, an exported Unmarshal*/Peek* function, or an exported
// Parse* function that takes a []byte (xgroup's relay and stream parsers;
// strconv.ParseInt and the like take strings and stay out) — that returns an
// error, and requires the caller's error path to do one of:
//
//   - propagate: return (or wrap and return) the error,
//   - account: increment a counter (s.stats.ParseErrors++, r.drops++,
//     x.n += 1, atomic.AddInt64),
//   - abort loudly: panic or log.Fatal.
//
// Discarding the error into _, dropping the whole result list, or an error
// branch that returns without any of the above is reported.
func statcount(p *pass) {
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				p.checkFunc(fd)
			}
			return true
		})
	}
}

// isDecodeCall reports whether the call is decode-shaped with an error as
// its final result.
func (p *pass) isDecodeCall(call *ast.CallExpr) bool {
	fn := p.callee(call)
	if fn == nil {
		return false
	}
	sig := fn.Signature()
	if sig.Results().Len() == 0 {
		return false
	}
	n := fn.Name()
	switch {
	case strings.HasPrefix(n, "parse"), strings.HasPrefix(n, "Unmarshal"), strings.HasPrefix(n, "Peek"):
	case strings.HasPrefix(n, "Parse") && takesBytes(sig):
	default:
		return false
	}
	return types.Identical(sig.Results().At(sig.Results().Len()-1).Type(), types.Universe.Lookup("error").Type())
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

func (p *pass) checkFunc(fd *ast.FuncDecl) {
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
				if call, ok := st.X.(*ast.CallExpr); ok && p.isDecodeCall(call) {
					p.report(call.Pos(), "decode result of %s discarded: count the drop or handle the error", calleeName(call))
				}
			case *ast.AssignStmt:
				p.checkAssign(st, list, i)
			case *ast.IfStmt:
				// if err := parse(b); err != nil { ... }
				if init, ok := st.Init.(*ast.AssignStmt); ok {
					p.checkAssignInIf(init, st)
				}
			}
		}
		return true
	})
}

// errObjOfAssign returns the error object a decode call's result is bound
// to, or a marker that it was blanked.
func (p *pass) errObjOfAssign(as *ast.AssignStmt) (types.Object, *ast.CallExpr, bool) {
	if len(as.Rhs) != 1 {
		return nil, nil, false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !p.isDecodeCall(call) {
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
	return p.info.ObjectOf(id), call, false
}

func (p *pass) checkAssign(as *ast.AssignStmt, list []ast.Stmt, idx int) {
	errObj, call, blanked := p.errObjOfAssign(as)
	if call == nil {
		return
	}
	if blanked {
		p.report(call.Pos(), "decode error of %s discarded into _: count the drop or handle the error", calleeName(call))
		return
	}
	if errObj == nil {
		return
	}
	// Find the guard: the next statement mentioning the error object.
	for _, st := range list[idx+1:] {
		if ifst, ok := st.(*ast.IfStmt); ok && p.mentionsObj(ifst.Cond, errObj) {
			p.checkGuard(call, ifst, errObj)
			return
		}
		if isBlankAssign(st) {
			continue // _ = err silences the compiler, not this rule
		}
		if p.mentionsObj(st, errObj) {
			return // handled some other way; assume good
		}
	}
	p.report(call.Pos(), "decode error of %s is never checked: count the drop or handle the error", calleeName(call))
}

func (p *pass) checkAssignInIf(as *ast.AssignStmt, ifst *ast.IfStmt) {
	errObj, call, blanked := p.errObjOfAssign(as)
	if call == nil {
		return
	}
	if blanked {
		p.report(call.Pos(), "decode error of %s discarded into _: count the drop or handle the error", calleeName(call))
		return
	}
	if errObj == nil || !p.mentionsObj(ifst.Cond, errObj) {
		return
	}
	p.checkGuard(call, ifst, errObj)
}

// checkGuard inspects the error branch of an if guard.
func (p *pass) checkGuard(call *ast.CallExpr, ifst *ast.IfStmt, errObj types.Object) {
	var branch ast.Node
	switch p.guardKind(ifst.Cond, errObj) {
	case token.NEQ:
		branch = ifst.Body
	case token.EQL:
		if ifst.Else == nil {
			// if err == nil { happy } with no else: the error evaporates.
			p.report(call.Pos(), "decode error of %s has no error branch: count the drop or handle the error", calleeName(call))
			return
		}
		branch = ifst.Else
	default:
		return // unusual guard; give the benefit of the doubt
	}
	if !p.branchAccounts(branch, errObj) {
		p.report(call.Pos(), "error path of %s drops the message silently: increment a Stats counter or propagate the error", calleeName(call))
	}
}

// guardKind classifies the condition as err != nil (token.NEQ) or
// err == nil (token.EQL), and anything else as token.ILLEGAL.
func (p *pass) guardKind(cond ast.Expr, errObj types.Object) token.Token {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ && be.Op != token.EQL {
		return token.ILLEGAL
	}
	isErr := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && p.info.ObjectOf(id) == errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if (isErr(be.X) && isNil(be.Y)) || (isErr(be.Y) && isNil(be.X)) {
		return be.Op
	}
	return token.ILLEGAL
}

// branchAccounts reports whether the error branch propagates, counts, or
// aborts loudly.
func (p *pass) branchAccounts(branch ast.Node, errObj types.Object) bool {
	ok := false
	ast.Inspect(branch, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if p.mentionsObj(res, errObj) {
					ok = true
				}
			}
		case *ast.IncDecStmt:
			if _, isSel := ast.Unparen(n.X).(*ast.SelectorExpr); isSel && n.Tok == token.INC {
				ok = true
			}
		case *ast.AssignStmt:
			if _, isSel := ast.Unparen(n.Lhs[0]).(*ast.SelectorExpr); isSel && n.Tok == token.ADD_ASSIGN {
				ok = true
			}
		case *ast.CallExpr:
			switch nm := calleeName(n); {
			case nm == "panic", nm == "Fatal", nm == "Fatalf":
				ok = true
			case strings.HasPrefix(nm, "Add"): // atomic.AddInt64 and kin
				if fn := p.callee(n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
					ok = true
				}
			}
		}
		return !ok
	})
	return ok
}

func (p *pass) mentionsObj(n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
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
