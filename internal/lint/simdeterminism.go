package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// deterministicPkgs are the packages executing under the simulation kernel
// and the commands with golden stdout, matched by the final element of the
// import path.
var deterministicPkgs = map[string]bool{
	"sim": true, "simnet": true, "gcs": true, "dbsm": true, "core": true,
	"campaign": true, "faults": true, "csrt": true, "db": true, "replica": true,
	"xgroup": true, "tpcc": true, "recovery": true, "explore": true, "check": true,
	"trace": true, "metrics": true,
	"dbsim": true, "faultsim": true, "experiments": true,
}

// bannedTime are time-package functions that read or wait on the wall
// clock. Duration arithmetic and formatting remain available.
var bannedTime = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "Tick": true, "NewTimer": true,
	"NewTicker": true, "AfterFunc": true, "Since": true, "Until": true,
}

// randConstructors are math/rand functions that build an explicitly seeded
// generator; every other package-level rand function draws from the global
// source and is banned.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// simdeterminism enforces the repository's reproducibility invariant: inside
// the deterministic simulation packages, every run of a seed must be
// byte-identical, so wall-clock time, the global math/rand source, real
// sleeping, raw goroutines, and order-sensitive iteration over maps are
// forbidden.
//
// The rule applies to the packages that execute under the simulation
// kernel — sim, simnet, gcs, dbsm, core, campaign, faults, csrt, db,
// replica, xgroup, tpcc, recovery, explore, check, trace and metrics — and
// to the commands whose stdout is pinned by golden files as a pure function
// of their flags: dbsim, faultsim and experiments (a command's package is
// matched by its directory, the final element of its import path). Outside
// the rule stay expr (the worker pool is goroutines by design), runtimeapi
// (the native runtime is the host clock), this package, and bench/.
//
// Map iteration is flagged only when the loop body is order-sensitive.
// Order-independent bodies are allowed without a waiver:
//
//   - collecting keys/values into a slice with x = append(x, ...) (the
//     canonical collect-then-sort idiom),
//   - integer accumulation (n++, sum += v, bits |= v, and the other
//     commutative compound assignments),
//   - writes keyed by the loop key (dst[k] = ..., delete(m, k)),
//   - writes to variables declared inside the loop body.
//
// Everything else — channel sends, go/defer statements, event scheduling
// and network sends, calls through func-typed struct fields (upcalls),
// float accumulation, plain assignment to outer state — depends on
// iteration order and is reported.
func simdeterminism(p *pass) {
	if !deterministicPkgs[path.Base(p.path)] {
		return
	}
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.report(n.Pos(), "raw goroutine in deterministic package: schedule work on the simulation kernel instead")
			case *ast.CallExpr:
				p.checkCall(n)
			case *ast.RangeStmt:
				p.checkMapRange(n)
			}
			return true
		})
	}
}

// checkCall flags wall-clock and global-rand calls.
func (p *pass) checkCall(call *ast.CallExpr) {
	fn := p.callee(call)
	// Only package-level functions: methods on *rand.Rand or time.Timer
	// values are explicitly seeded/simulated and fine.
	if fn == nil || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			p.report(call.Pos(), "time.%s in deterministic package: use the simulation clock (sim.Kernel)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			p.report(call.Pos(), "global math/rand source (rand.%s) in deterministic package: use a seeded *sim.RNG", fn.Name())
		}
	}
}

// checkMapRange flags order-sensitive statements inside a range over a map.
func (p *pass) checkMapRange(rng *ast.RangeStmt) {
	if !isMap(p.info.TypeOf(rng.X)) {
		return
	}
	keyObj := p.rangeVarObj(rng.Key)
	local := p.localObjects(rng.Body)
	if keyObj != nil {
		local[keyObj] = true // the key itself is per-iteration
	}
	if vo := p.rangeVarObj(rng.Value); vo != nil {
		local[vo] = true
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Nested ranges over maps are checked by their own visit.
			if isMap(p.info.TypeOf(n.X)) {
				return false
			}
		case *ast.SendStmt:
			p.report(n.Pos(), "channel send inside range over map: iteration order is nondeterministic")
		case *ast.GoStmt, *ast.DeferStmt:
			p.report(n.Pos(), "deferred/spawned work inside range over map: iteration order is nondeterministic")
		case *ast.CallExpr:
			p.checkRangeCall(n, keyObj)
		case *ast.IncDecStmt:
			p.checkRangeWrite(n.X, token.INC, nil, local, keyObj, n.Pos())
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				p.checkRangeWrite(lhs, n.Tok, rhs, local, keyObj, n.Pos())
			}
		}
		return true
	})
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// schedulingCalls are method names that publish ordered work: scheduling
// an event, arming a runtime timer or transmitting a message from inside a
// map range bakes the iteration order into the event stream.
var schedulingCalls = map[string]bool{
	"Schedule": true, "ScheduleAt": true, "SchedulePri": true, "SchedulePriAt": true,
	"StartJob": true, "Arm": true, "Send": true, "Multicast": true,
}

func (p *pass) checkRangeCall(call *ast.CallExpr, keyObj types.Object) {
	if p.isBuiltin(call, "delete") {
		// delete(m, k) keyed by the loop key is order-independent.
		if len(call.Args) == 2 {
			if id, ok := call.Args[1].(*ast.Ident); ok && keyObj != nil && p.info.ObjectOf(id) == keyObj {
				return
			}
		}
		p.report(call.Pos(), "delete with a non-loop key inside range over map: iteration order is nondeterministic")
		return
	}
	name := calleeName(call)
	if fn := p.callee(call); schedulingCalls[name] && fn != nil && fn.Signature().Recv() != nil {
		p.report(call.Pos(), "%s call inside range over map: events are published in nondeterministic iteration order", name)
	}
	// An upcall through a func-typed field runs code the rule cannot see,
	// which may schedule or send in the loop's order.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v, ok := p.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			p.report(call.Pos(), "call through func field %s inside range over map: its effects follow nondeterministic iteration order", name)
		}
	}
}

// commutativeTok are compound assignments that are order-independent on
// integer operands.
var commutativeTok = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.MUL_ASSIGN: true, token.AND_ASSIGN: true,
	token.OR_ASSIGN: true, token.XOR_ASSIGN: true, token.INC: true, token.DEC: true,
}

func (p *pass) checkRangeWrite(lhs ast.Expr, tok token.Token, rhs ast.Expr, local map[types.Object]bool, keyObj types.Object, pos token.Pos) {
	if tok == token.DEFINE {
		return
	}
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := p.info.ObjectOf(id)
		if obj == nil || local[obj] {
			return
		}
		// x = append(x, ...): the collect-then-sort idiom.
		if tok == token.ASSIGN && p.isSelfAppend(id, rhs) {
			return
		}
		if commutativeTok[tok] && isIntegral(obj.Type()) {
			return
		}
		p.report(pos, "order-sensitive write to %q declared outside range over map: iteration order is nondeterministic", id.Name)
		return
	}
	// Writes through memory: x.f = v, s[i] = v, *p = v.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		// dst[k] = v keyed by the loop key hits distinct cells; order-free.
		if id, ok := ix.Index.(*ast.Ident); ok && keyObj != nil && p.info.ObjectOf(id) == keyObj {
			return
		}
	}
	if root := rootIdent(lhs); root != nil {
		if obj := p.info.ObjectOf(root); obj != nil && local[obj] {
			return
		}
	}
	if commutativeTok[tok] && isIntegral(p.info.TypeOf(lhs)) {
		return
	}
	p.report(pos, "order-sensitive write through outer state inside range over map: iteration order is nondeterministic")
}

// isSelfAppend reports whether rhs is append(<same object>, ...).
func (p *pass) isSelfAppend(lhs *ast.Ident, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !p.isBuiltin(call, "append") || len(call.Args) == 0 {
		return false
	}
	root := rootIdent(call.Args[0])
	return root != nil && p.info.ObjectOf(root) == p.info.ObjectOf(lhs)
}

func isIntegral(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// rangeVarObj resolves a range variable expression to its object.
func (p *pass) rangeVarObj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return p.info.ObjectOf(id)
}

// localObjects collects every object declared within the subtree.
func (p *pass) localObjects(n ast.Node) map[types.Object]bool {
	local := make(map[types.Object]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	return local
}
