package conc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// WriteTarget is one lvalue a node writes through: the written
// expression (an ident, or a selector/index/star chain) and where. For
// writes that happen inside a summarized callee, via and viaPos name
// the helper and the write site inside it.
type WriteTarget struct {
	Expr   ast.Expr
	Pos    token.Pos
	Via    *types.Func
	ViaPos analysis.Position
}

// WriteTargets returns the lvalues written by one AST node: assignment
// left-hand sides, inc/dec operands, the destination of the copy
// builtin, range statements assigning pre-declared variables, and —
// when a summary lookup is supplied — arguments passed to a callee
// whose concurrency summary records an unguarded write through that
// parameter.
func WriteTargets(info *types.Info, n ast.Node, lookup Lookup) []WriteTarget {
	var out []WriteTarget
	add := func(e ast.Expr, pos token.Pos) {
		if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
			return
		}
		out = append(out, WriteTarget{Expr: e, Pos: pos})
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			add(lhs, lhs.Pos())
		}
	case *ast.IncDecStmt:
		add(n.X, n.X.Pos())
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			if n.Key != nil {
				add(n.Key, n.Key.Pos())
			}
			if n.Value != nil {
				add(n.Value, n.Value.Pos())
			}
		}
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "copy" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) > 0 {
				add(n.Args[0], n.Args[0].Pos())
				return out
			}
		}
		if lookup == nil {
			return out
		}
		callee, dynamic, isCall := callgraph.StaticCallee(info, n)
		if !isCall || dynamic || callee == nil {
			return out
		}
		cs := lookup(callee)
		if cs == nil {
			return out
		}
		for _, w := range cs.UnguardedWrites {
			arg := callgraph.ArgExpr(n, callee, w.Param)
			if arg == nil {
				continue
			}
			out = append(out, WriteTarget{Expr: arg, Pos: n.Pos(), Via: callee, ViaPos: w.Pos})
		}
	}
	return out
}

// LocalOnly reports whether every identifier in e resolves to a
// variable declared within the span [from, to] — the closure-local test
// the sharding exemption uses: s[i] written from a goroutine is private
// to that goroutine when i is a closure parameter or closure-local.
func LocalOnly(info *types.Info, e ast.Expr, from, to token.Pos) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		v, _ := info.Uses[id].(*types.Var)
		if v == nil || v.IsField() {
			return true // package/function references and field names
		}
		if v.Pos() < from || v.Pos() > to {
			ok = false
		}
		return ok
	})
	return ok
}

// ShardedAccess reports whether an access expression reaches its root
// variable only through an index that is local to [from, to] — the
// "per-goroutine slot" idiom (scanErrs[i], slots[si], cols[m.Target])
// where each goroutine instance owns a disjoint element. Plain
// whole-variable accesses are never sharded.
func ShardedAccess(info *types.Info, e ast.Expr, from, to token.Pos) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			if LocalOnly(info, x.Index, from, to) {
				return true
			}
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}
