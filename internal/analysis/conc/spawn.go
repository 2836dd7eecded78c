package conc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Spawn is one goroutine creation site in a function body: a direct go
// statement, or — through the concurrency summaries — a call to a
// helper that starts goroutines of its own.
type Spawn struct {
	// Go is the statement for direct spawns; nil for helper spawns.
	Go *ast.GoStmt
	// Call is the spawned call (Go.Call for direct spawns, the helper
	// call otherwise).
	Call *ast.CallExpr
	// Lit is the spawned closure body, when the goroutine is a function
	// literal. Named-function spawns and helper spawns leave it nil.
	Lit *ast.FuncLit
	// Via is the summarized helper for indirect spawns, with the go
	// statements inside it (as serialized positions — the helper may
	// live in another package).
	Via      *types.Func
	ViaConc  *FuncConc
	ViaSites []analysis.Position
	// Loop is the innermost loop statement (of this body) enclosing the
	// spawn, or nil: a spawn in a loop creates one goroutine per
	// iteration.
	Loop ast.Stmt
	// Captured lists the function-local variables the closure captures
	// by reference (free variables of Lit), in order of first use;
	// FirstUse locates that use for diagnostics.
	Captured []*types.Var
	FirstUse map[*types.Var]token.Pos
}

// Spawns collects the goroutine spawn sites lexically inside body —
// not inside nested function literals, whose spawns belong to whoever
// runs them. lookup (optional) resolves helper calls that spawn.
func Spawns(info *types.Info, body *ast.BlockStmt, lookup Lookup) []Spawn {
	var out []Spawn
	var loops []ast.Stmt
	innermost := func() ast.Stmt {
		if len(loops) == 0 {
			return nil
		}
		return loops[len(loops)-1]
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			loops = append(loops, n)
			ast.Inspect(n.Body, walk)
			loops = loops[:len(loops)-1]
			return false
		case *ast.RangeStmt:
			loops = append(loops, n)
			ast.Inspect(n.Body, walk)
			loops = loops[:len(loops)-1]
			return false
		case *ast.GoStmt:
			sp := Spawn{Go: n, Call: n.Call, Loop: innermost()}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				sp.Lit = lit
				sp.Captured, sp.FirstUse = capturedVars(info, lit)
			}
			out = append(out, sp)
			// Arguments are evaluated at spawn time on this goroutine;
			// nothing below the go statement runs here.
			return false
		case *ast.CallExpr:
			if lookup == nil {
				return true
			}
			callee, dynamic, isCall := callgraph.StaticCallee(info, n)
			if !isCall || dynamic || callee == nil {
				return true
			}
			if cs := lookup(callee); cs != nil && cs.Spawns {
				out = append(out, Spawn{
					Call:     n,
					Via:      callee,
					ViaConc:  cs,
					ViaSites: cs.SpawnSites,
					Loop:     innermost(),
				})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}

// capturedVars lists the free variables of a closure: identifiers in
// its body resolving to function-local variables declared outside the
// literal. Package-level variables are shared too, but the concurrency
// analyzers reason about the spawning function's own state; globals are
// out of scope here.
func capturedVars(info *types.Info, lit *ast.FuncLit) ([]*types.Var, map[*types.Var]token.Pos) {
	var order []*types.Var
	first := map[*types.Var]token.Pos{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := info.Uses[id].(*types.Var)
		if v == nil || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the closure (params included)
		}
		if pkgLevel(v) {
			return true
		}
		if _, seen := first[v]; !seen {
			first[v] = id.Pos()
			order = append(order, v)
		}
		return true
	})
	return order, first
}

// pkgLevel reports whether v is declared at package scope.
func pkgLevel(v *types.Var) bool {
	s := v.Parent()
	return s != nil && s.Parent() == types.Universe
}

// JoinKeys describes how a spawned closure announces completion: the
// rendered sync.WaitGroup receivers it calls Done on, and the channels
// it sends on or closes.
type JoinKeys struct {
	WaitGroups map[string]bool
	Chans      map[string]bool
}

// Joins extracts the join keys of a spawned closure (deferred Done
// counts — that is the idiomatic form).
func Joins(info *types.Info, lit *ast.FuncLit) JoinKeys {
	jk := JoinKeys{WaitGroups: map[string]bool{}, Chans: map[string]bool{}}
	if lit == nil {
		return jk
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, method := WaitGroupCall(info, n); method == "Done" {
				jk.WaitGroups[recv] = true
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					jk.Chans[ExprString(n.Args[0])] = true
				}
			}
		case *ast.SendStmt:
			jk.Chans[ExprString(n.Chan)] = true
		}
		return true
	})
	return jk
}

// SyncAfter returns the position of the first statement after `after`
// in body (outside nested function literals) that joins the spawned
// goroutine: a Wait on a WaitGroup the closure Dones, or a receive from
// a channel the closure sends on or closes. token.NoPos when the body
// never joins it — the goroutine's lifetime is unbounded from the
// spawning function's point of view.
func SyncAfter(info *types.Info, body *ast.BlockStmt, jk JoinKeys, after token.Pos) token.Pos {
	best := token.NoPos
	consider := func(pos token.Pos) {
		if pos > after && (best == token.NoPos || pos < best) {
			best = pos
		}
	}
	walkOutsideFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if recv, method := WaitGroupCall(info, n); method == "Wait" && jk.WaitGroups[recv] {
				consider(n.Pos())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && jk.Chans[ExprString(n.X)] {
				consider(n.Pos())
			}
		case *ast.RangeStmt:
			if jk.Chans[ExprString(n.X)] {
				consider(n.Pos())
			}
		}
	})
	return best
}
