package conc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// FactName is the analyzer name concurrency summaries are stored under
// in a FactStore; the four conc analyzers read the fact directly, the
// same way taintalloc reads "funcsummary".
const FactName = "concsummary"

// LockEffect is one net lock operation a function performs on a mutex
// reachable from a parameter: `func (s *store) lock() { s.mu.Lock() }`
// summarizes as {Param: 0, Path: "mu", Op: "lock"}. Param counts the
// receiver first, like funcsummary's indices.
type LockEffect struct {
	Param int    `json:"param"`
	Path  string `json:"path,omitempty"` // field path to the mutex; "" when the param is the mutex
	Op    string `json:"op"`             // "lock", "rlock", "unlock", "runlock"
}

// ParamWrite marks a parameter (receiver first) that the function
// writes through — *p, p.f, p[i] on a pointer/slice/map parameter —
// with no lock held at the write. Callers running the callee on a
// goroutine must either hold a common lock around the call or own the
// argument exclusively.
type ParamWrite struct {
	Param int               `json:"param"`
	Pos   analysis.Position `json:"pos"`
}

// FuncConc is the serialized concurrency summary of one function, keyed
// in a package fact by types.Func.FullName.
type FuncConc struct {
	// Spawns reports that the function starts goroutines, directly or
	// through a callee.
	Spawns bool `json:"spawns,omitempty"`
	// SpawnSites locates the direct go statements (for diagnostics'
	// related-location paths).
	SpawnSites []analysis.Position `json:"spawnSites,omitempty"`
	// AsyncSpawn reports that a spawned goroutine can outlive the call:
	// there is a spawn with no sync.WaitGroup.Wait joining it before
	// return, or a callee spawns goroutines this function cannot join.
	// Calling an async spawner once per row is itself an unbounded
	// spawn, which is why boundedspawn needs the distinction.
	AsyncSpawn bool `json:"asyncSpawn,omitempty"`
	// Via names the callee the spawn was inherited from, when the
	// function spawns only through another function.
	Via string `json:"via,omitempty"`
	// NetLocks lists lock operations on parameters that do not balance
	// out inside the function (lock helpers, unlock helpers).
	NetLocks []LockEffect `json:"netLocks,omitempty"`
	// UnguardedWrites lists parameters written without any lock held.
	UnguardedWrites []ParamWrite `json:"unguardedWrites,omitempty"`
}

func (s *FuncConc) empty() bool {
	return !s.Spawns && !s.AsyncSpawn && len(s.NetLocks) == 0 && len(s.UnguardedWrites) == 0
}

// Lookup resolves the concurrency summary of a callee, or nil.
type Lookup = analysis.Lookup[FuncConc]

// Layer summarizes every function body bottom-up. Unknown callees are
// treated as lock-neutral non-spawners. Cross-package inheritance is
// module-scoped: the standard library manages its own goroutines
// (http's per-connection loop, pprof's profile writer, testing's
// tRunner), and propagating them would make every transitive caller a
// "spawner" — fmt.Errorf reaches one eventually.
var Layer = &analysis.Layer[FuncConc, struct{}]{
	Name:         FactName,
	ModuleScoped: true,
	Engine: func(pass *analysis.Pass) analysis.Summarize[FuncConc, struct{}] {
		return func(n *callgraph.Node, lookup Lookup) (struct{}, *FuncConc) {
			return struct{}{}, computeFunc(pass.Fset, pass.TypesInfo, n.Decl, lookup)
		}
	},
	Empty: (*FuncConc).empty,
}

// Analyzer is the fact producer: it emits no diagnostics, only the
// "concsummary" package fact the four concurrency analyzers consume for
// cross-package calls.
var Analyzer = Layer.Analyzer("concsummary: compute per-function concurrency summaries (net lock effects on parameters, goroutine spawns and whether they outlive the call, parameters written without a lock) bottom-up over call-graph SCCs and export them as a package fact for the concurrency analyzers")

// computeFunc summarizes one function declaration.
func computeFunc(fset *token.FileSet, info *types.Info, decl *ast.FuncDecl, lookup Lookup) *FuncConc {
	sum := &FuncConc{}
	if decl.Body == nil {
		return sum
	}
	params := callgraph.ParamVars(decl, info)

	// Spawn shape: direct go statements and async callees, outside
	// nested function literals (a closure's spawns belong to whoever
	// runs the closure).
	var lastWait token.Pos
	var spawnEnds []token.Pos
	walkOutsideFuncLits(decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			sum.Spawns = true
			sum.SpawnSites = append(sum.SpawnSites, analysis.PositionOf(fset, n.Pos()))
			spawnEnds = append(spawnEnds, n.Pos())
		case *ast.CallExpr:
			if _, method := WaitGroupCall(info, n); method == "Wait" {
				if n.Pos() > lastWait {
					lastWait = n.Pos()
				}
				return
			}
			callee, dynamic, isCall := callgraph.StaticCallee(info, n)
			if !isCall || dynamic || callee == nil {
				return
			}
			if cs := lookup(callee); cs != nil && cs.Spawns {
				sum.Spawns = true
				if sum.Via == "" && len(sum.SpawnSites) == 0 {
					sum.Via = callee.Name()
				}
				if cs.AsyncSpawn {
					// The callee's goroutines outlive its return and
					// this function has no handle to join them.
					sum.AsyncSpawn = true
				}
			}
		}
	})
	for _, p := range spawnEnds {
		if lastWait < p {
			sum.AsyncSpawn = true
		}
	}

	// Net lock effects on parameters, and unguarded parameter writes,
	// both read off the solved lockset.
	ls := SolveLocksets(decl.Body, info, EffectFromLookup(info, lookup))
	acquireOp := map[string]string{} // lock key -> "lock" | "rlock"
	releaseSeen := map[string]string{}
	walkOutsideFuncLits(decl.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		recv, method := MutexCall(info, call)
		if recv == "" {
			return
		}
		switch method {
		case "Lock":
			acquireOp[recv] = "lock"
		case "RLock":
			acquireOp[recv] = "rlock"
		case "Unlock":
			releaseSeen[recv] = "unlock"
		case "RUnlock":
			releaseSeen[recv] = "runlock"
		}
	})
	if exit, ok := ls.AtExit(); ok {
		for key := range exit.Keys() {
			if pi, path, ok := paramRelative(key, params); ok {
				op := acquireOp[key]
				if op == "" {
					op = "lock"
				}
				sum.NetLocks = append(sum.NetLocks, LockEffect{Param: pi, Path: path, Op: op})
			}
		}
	}
	for key, op := range releaseSeen {
		if acquireOp[key] != "" {
			continue // balanced inside the function
		}
		if pi, path, ok := paramRelative(key, params); ok {
			sum.NetLocks = append(sum.NetLocks, LockEffect{Param: pi, Path: path, Op: op})
		}
	}
	sortLockEffects(sum.NetLocks)

	walkOutsideFuncLits(decl.Body, func(n ast.Node) {
		for _, w := range WriteTargets(info, n, nil) {
			root := RootVar(info, w.Expr)
			if root == nil {
				continue
			}
			pi := paramIndex(root, params)
			if pi < 0 || !writableThrough(root.Type()) {
				continue
			}
			if _, isIdent := w.Expr.(*ast.Ident); isIdent {
				continue // assigning the parameter variable itself is local
			}
			set, ok := ls.At(w.Pos)
			if !ok || len(set.Keys()) > 0 {
				continue
			}
			sum.UnguardedWrites = append(sum.UnguardedWrites, ParamWrite{Param: pi, Pos: analysis.PositionOf(fset, w.Pos)})
		}
	})
	return sum
}

// EffectFromLookup adapts summary lookups into the lockset problem's
// call-effect resolver: a call to a summarized lock/unlock helper
// acquires or releases the corresponding caller-side key.
func EffectFromLookup(info *types.Info, lookup Lookup) EffectFn {
	if lookup == nil {
		return nil
	}
	return func(call *ast.CallExpr) []Effect {
		callee, dynamic, isCall := callgraph.StaticCallee(info, call)
		if !isCall || dynamic || callee == nil {
			return nil
		}
		cs := lookup(callee)
		if cs == nil || len(cs.NetLocks) == 0 {
			return nil
		}
		var out []Effect
		for _, e := range cs.NetLocks {
			arg := callgraph.ArgExpr(call, callee, e.Param)
			if arg == nil {
				continue
			}
			key := ExprString(arg)
			if e.Path != "" {
				key += "." + e.Path
			}
			out = append(out, Effect{Key: key, Acquire: e.Op == "lock" || e.Op == "rlock"})
		}
		return out
	}
}

// paramRelative splits a lock key rooted at a parameter name into
// (param index, remaining field path). "s.mu" with receiver s yields
// (0, "mu").
func paramRelative(key string, params []*types.Var) (int, string, bool) {
	root, path, _ := strings.Cut(key, ".")
	for i, p := range params {
		if p != nil && p.Name() == root {
			return i, path, true
		}
	}
	return -1, "", false
}

func paramIndex(v *types.Var, params []*types.Var) int {
	for i, p := range params {
		if p == v {
			return i
		}
	}
	return -1
}

// writableThrough reports whether writing through a variable of this
// type is visible outside the function (pointer, slice, map).
func writableThrough(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// walkOutsideFuncLits visits every node of body that executes on the
// function's own goroutine and defer-free path: nested function
// literals and deferred calls are skipped.
func walkOutsideFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func sortLockEffects(effects []LockEffect) {
	for i := 1; i < len(effects); i++ {
		for j := i; j > 0; j-- {
			a, b := effects[j-1], effects[j]
			if a.Param < b.Param || (a.Param == b.Param && a.Path <= b.Path) {
				break
			}
			effects[j-1], effects[j] = b, a
		}
	}
}
