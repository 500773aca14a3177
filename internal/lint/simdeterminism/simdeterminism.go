// Package simdeterminism enforces the repository's reproducibility
// invariant: inside the deterministic simulation packages, every run of a
// seed must be byte-identical, so wall-clock time, the global math/rand
// source, real sleeping, raw goroutines, and order-sensitive iteration
// over maps are forbidden.
//
// The rule applies to the packages that execute under the simulation
// kernel — sim, simnet, gcs, dbsm, core, campaign, faults, csrt, db,
// replica, xgroup, tpcc, recovery, explore, check, trace and metrics — and
// to the commands whose stdout is pinned by golden files as a pure function
// of their flags: dbsim, faultsim and experiments (a command's package is
// matched by its directory, the final element of its import path). Outside
// the rule stay expr (the worker pool is goroutines by design), runtimeapi
// (the native runtime is the host clock), the linters, and bench/. Code with
// a vetted reason opts out per line with
//
//	//lint:simdeterminism-ok <reason>
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
// and network sends, float accumulation, plain assignment to outer state —
// depends on iteration order and is reported.
package simdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astq"
	"repro/internal/lint/directive"
)

// Analyzer is the simdeterminism pass.
const name = "simdeterminism"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "forbid wall-clock time, global rand, sleeps, raw goroutines, and order-sensitive map iteration in the deterministic simulation packages",
	Run:  run,
}

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

func run(pass *analysis.Pass) error {
	if !deterministicPkgs[path.Base(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		if len(file.Decls) > 0 && analysis.IsTestFile(pass.Fset, file.Pos()) {
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
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Pos(), "raw goroutine in deterministic package: schedule work on the simulation kernel instead")
			case *ast.CallExpr:
				checkCall(pass, report, n)
			case *ast.RangeStmt:
				checkMapRange(pass, report, n)
			}
			return true
		})
	}
	return nil
}

// checkCall flags wall-clock and global-rand calls.
func checkCall(pass *analysis.Pass, report func(token.Pos, string, ...any), call *ast.CallExpr) {
	fn := astq.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Only package-level functions: methods on *rand.Rand or time.Timer
	// values are explicitly seeded/simulated and fine.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			report(call.Pos(), "time.%s in deterministic package: use the simulation clock (sim.Kernel)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			report(call.Pos(), "global math/rand source (rand.%s) in deterministic package: use a seeded *sim.RNG", fn.Name())
		}
	}
}

// checkMapRange flags order-sensitive statements inside a range over a map.
func checkMapRange(pass *analysis.Pass, report func(token.Pos, string, ...any), rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	keyObj := rangeVarObj(pass.TypesInfo, rng.Key)
	local := localObjects(pass.TypesInfo, rng.Body)
	if keyObj != nil {
		local[keyObj] = true // the key itself is per-iteration
	}
	if vo := rangeVarObj(pass.TypesInfo, rng.Value); vo != nil {
		local[vo] = true
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rng {
				// Nested ranges are checked by their own visit.
				t := pass.TypesInfo.TypeOf(n.X)
				if t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						return false
					}
				}
			}
		case *ast.SendStmt:
			report(n.Pos(), "channel send inside range over map: iteration order is nondeterministic")
		case *ast.GoStmt, *ast.DeferStmt:
			report(n.Pos(), "deferred/spawned work inside range over map: iteration order is nondeterministic")
		case *ast.CallExpr:
			checkRangeCall(pass, report, n, keyObj)
		case *ast.IncDecStmt:
			checkRangeWrite(pass, report, n.X, token.INC, nil, local, keyObj, n.Pos())
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				checkRangeWrite(pass, report, lhs, n.Tok, rhs, local, keyObj, n.Pos())
			}
		}
		return true
	})
}

// schedulingCalls are method names that publish ordered work: scheduling
// an event or transmitting a message from inside a map range bakes the
// iteration order into the event stream.
var schedulingCalls = map[string]bool{
	"Schedule": true, "ScheduleAt": true, "SchedulePri": true, "SchedulePriAt": true,
	"StartJob": true, "Send": true, "Multicast": true,
}

func checkRangeCall(pass *analysis.Pass, report func(token.Pos, string, ...any), call *ast.CallExpr, keyObj types.Object) {
	if astq.IsBuiltin(pass.TypesInfo, call, "delete") {
		// delete(m, k) keyed by the loop key is order-independent.
		if len(call.Args) == 2 {
			if id, ok := call.Args[1].(*ast.Ident); ok && keyObj != nil && astq.Obj(pass.TypesInfo, id) == keyObj {
				return
			}
		}
		report(call.Pos(), "delete with a non-loop key inside range over map: iteration order is nondeterministic")
		return
	}
	name := astq.CalleeName(call)
	if schedulingCalls[name] && astq.Callee(pass.TypesInfo, call) != nil {
		if sig, ok := astq.Callee(pass.TypesInfo, call).Type().(*types.Signature); ok && sig.Recv() != nil {
			report(call.Pos(), "%s call inside range over map: events are published in nondeterministic iteration order", name)
		}
	}
}

// commutativeTok are compound assignments that are order-independent on
// integer operands.
var commutativeTok = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.MUL_ASSIGN: true, token.AND_ASSIGN: true,
	token.OR_ASSIGN: true, token.XOR_ASSIGN: true, token.INC: true, token.DEC: true,
}

func checkRangeWrite(pass *analysis.Pass, report func(token.Pos, string, ...any), lhs ast.Expr, tok token.Token, rhs ast.Expr, local map[types.Object]bool, keyObj types.Object, pos token.Pos) {
	if tok == token.DEFINE {
		return
	}
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := astq.Obj(pass.TypesInfo, id)
		if obj == nil || local[obj] {
			return
		}
		// x = append(x, ...): the collect-then-sort idiom.
		if tok == token.ASSIGN && isSelfAppend(pass.TypesInfo, id, rhs) {
			return
		}
		if commutativeTok[tok] && isIntegral(obj.Type()) {
			return
		}
		report(pos, "order-sensitive write to %q declared outside range over map: iteration order is nondeterministic", id.Name)
		return
	}
	// Writes through memory: x.f = v, s[i] = v, *p = v.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		// dst[k] = v keyed by the loop key hits distinct cells; order-free.
		if id, ok := ix.Index.(*ast.Ident); ok && keyObj != nil && astq.Obj(pass.TypesInfo, id) == keyObj {
			return
		}
	}
	if root := astq.RootIdent(lhs); root != nil {
		if obj := astq.Obj(pass.TypesInfo, root); obj != nil && local[obj] {
			return
		}
	}
	if commutativeTok[tok] && isIntegral(pass.TypesInfo.TypeOf(lhs)) {
		return
	}
	report(pos, "order-sensitive write through outer state inside range over map: iteration order is nondeterministic")
}

// isSelfAppend reports whether rhs is append(<same object>, ...).
func isSelfAppend(info *types.Info, lhs *ast.Ident, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !astq.IsBuiltin(info, call, "append") || len(call.Args) == 0 {
		return false
	}
	root := astq.RootIdent(call.Args[0])
	return root != nil && astq.Obj(info, root) == astq.Obj(info, lhs)
}

func isIntegral(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// rangeVarObj resolves a range variable expression to its object.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return astq.Obj(info, id)
}

// localObjects collects every object declared within the subtree.
func localObjects(info *types.Info, n ast.Node) map[types.Object]bool {
	local := make(map[types.Object]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	return local
}
