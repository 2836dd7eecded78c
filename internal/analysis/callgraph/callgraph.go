// Package callgraph builds a per-package call graph over go/ast and
// go/types, the first rung of spartanvet's interprocedural layer. Edges
// resolve statically for package-level functions and methods on
// concrete receivers; interface dispatch and function values are kept
// as conservative dynamic edges (the declared callee when one exists,
// nil otherwise). SCCs() groups the in-package nodes into strongly
// connected components in bottom-up order — callees before callers —
// which is the evaluation order the summary layers (analysis.Layer)
// need to compute per-function summaries with recursion handled by
// fixpoint iteration inside each component.
//
// Cross-package edges carry the callee's *types.Func but no Node;
// summaries for those come from the fact store (see analysis.Layer),
// computed when the unitchecker visited the dependency.
package callgraph

import (
	"go/ast"
	"go/types"
)

// Node is one function declaration with a body in the package under
// analysis.
type Node struct {
	Func *types.Func
	Decl *ast.FuncDecl
	// Out lists the calls lexically inside Decl, including calls made
	// from function literals declared within it (the literal's frame is
	// attributed to the declaring function — good enough for SCC
	// ordering, and documented as such for summary computation, which
	// does not descend into literals).
	Out []*Edge
}

// Edge is one call site.
type Edge struct {
	Site *ast.CallExpr
	// Callee is the statically declared target: the package function or
	// the method named at the site. Nil when the target is a function
	// value (variable, field, returned closure, immediately-invoked
	// literal).
	Callee *types.Func
	// Node is the in-package Node for Callee, nil for cross-package or
	// dynamic targets.
	Node *Node
	// Dynamic marks calls whose runtime target the graph cannot pin
	// down: interface method dispatch (Callee is the interface method)
	// and function values (Callee is nil). Consumers must treat these
	// conservatively.
	Dynamic bool
}

// Graph is the package call graph.
type Graph struct {
	// Nodes in source declaration order.
	Nodes  []*Node
	byFunc map[*types.Func]*Node
}

// Build constructs the call graph for one type-checked package.
func Build(files []*ast.File, info *types.Info) *Graph {
	g := &Graph{byFunc: map[*types.Func]*Node{}}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Func: fn, Decl: fd}
			g.Nodes = append(g.Nodes, n)
			g.byFunc[fn] = n
		}
	}
	for _, n := range g.Nodes {
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, dynamic, isCall := StaticCallee(info, call)
			if !isCall {
				return true // conversion or builtin
			}
			e := &Edge{Site: call, Callee: callee, Dynamic: dynamic}
			if callee != nil && !dynamic {
				e.Node = g.byFunc[callee]
			}
			n.Out = append(n.Out, e)
			return true
		})
	}
	return g
}

// NodeOf returns the node declaring fn, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	return g.byFunc[fn]
}

// StaticCallee resolves the target of a call expression. isCall is
// false for conversions and builtins (not function calls at all).
// Otherwise callee is the declared target when one is named at the
// site, and dynamic reports whether the runtime target may differ:
// interface dispatch (callee = the interface method) or a function
// value (callee = nil).
func StaticCallee(info *types.Info, call *ast.CallExpr) (callee *types.Func, dynamic, isCall bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return obj, false, true
		case *types.Builtin:
			return nil, false, false
		case *types.TypeName:
			return nil, false, false // conversion
		case *types.Var:
			return nil, true, true // function-typed variable
		case nil:
			return nil, false, false
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				m := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					return m, true, true
				}
				return m, false, true
			case types.FieldVal:
				return nil, true, true // function-typed struct field
			}
			return nil, true, true
		}
		// Qualified identifier pkg.F, pkg.T (conversion), or method
		// expression T.M.
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return obj, false, true
		case *types.TypeName:
			return nil, false, false
		case *types.Var:
			return nil, true, true
		}
	case *ast.FuncLit:
		return nil, true, true // immediately-invoked literal
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StarExpr,
		*ast.InterfaceType, *ast.StructType, *ast.FuncType:
		return nil, false, false // composite-type conversion
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Generic instantiation F[T](...) — resolve the instantiated
		// identifier if it names a function.
		var id *ast.Ident
		switch x := fun.(type) {
		case *ast.IndexExpr:
			id, _ = unparen(x.X).(*ast.Ident)
		case *ast.IndexListExpr:
			id, _ = unparen(x.X).(*ast.Ident)
		}
		if id != nil {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn, false, true
			}
		}
		return nil, true, true
	}
	return nil, true, true
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// SCCs partitions the in-package nodes into strongly connected
// components and returns them bottom-up: every component appears after
// all components it calls into. This is exactly Tarjan's emission
// order, so summaries can be computed in one pass over the result with
// a fixpoint loop only inside each (possibly recursive) component.
func (g *Graph) SCCs() [][]*Node {
	t := &tarjan{
		index:   map[*Node]int{},
		lowlink: map[*Node]int{},
		onStack: map[*Node]bool{},
	}
	for _, n := range g.Nodes {
		if _, seen := t.index[n]; !seen {
			t.strongconnect(n)
		}
	}
	return t.sccs
}

type tarjan struct {
	counter int
	index   map[*Node]int
	lowlink map[*Node]int
	stack   []*Node
	onStack map[*Node]bool
	sccs    [][]*Node
}

func (t *tarjan) strongconnect(n *Node) {
	t.index[n] = t.counter
	t.lowlink[n] = t.counter
	t.counter++
	t.stack = append(t.stack, n)
	t.onStack[n] = true

	for _, e := range n.Out {
		m := e.Node
		if m == nil {
			continue
		}
		if _, seen := t.index[m]; !seen {
			t.strongconnect(m)
			t.lowlink[n] = min(t.lowlink[n], t.lowlink[m])
		} else if t.onStack[m] {
			t.lowlink[n] = min(t.lowlink[n], t.index[m])
		}
	}

	if t.lowlink[n] == t.index[n] {
		var scc []*Node
		for {
			m := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.onStack[m] = false
			scc = append(scc, m)
			if m == n {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}

// ParamVars lists the parameter objects of a declaration: receiver
// first, then parameters, in declaration order — the index convention
// every summary layer uses. Blank and anonymous parameters occupy their
// index with a nil entry.
func ParamVars(decl *ast.FuncDecl, info *types.Info) []*types.Var {
	var out []*types.Var
	if decl.Recv != nil {
		out = fieldVars(out, decl.Recv, info)
	}
	return fieldVars(out, decl.Type.Params, info)
}

// ResultVars lists the named result objects (nil entries for unnamed),
// for queries at bare returns.
func ResultVars(decl *ast.FuncDecl, info *types.Info) []*types.Var {
	return fieldVars(nil, decl.Type.Results, info)
}

func fieldVars(out []*types.Var, fields *ast.FieldList, info *types.Info) []*types.Var {
	if fields == nil {
		return out
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			v, _ := info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// ArgExpr maps a receiver-first parameter index to the call-site
// expression bound to it, or nil.
func ArgExpr(call *ast.CallExpr, callee *types.Func, param int) ast.Expr {
	sig, _ := callee.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if param == 0 {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		param--
	}
	if param < 0 || param >= len(call.Args) {
		return nil
	}
	return call.Args[param]
}
