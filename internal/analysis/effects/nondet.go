// The nondeterminism engine: a per-function value-flow analysis that
// tracks where run-to-run-unstable values (map iteration order, the
// wall clock, math/rand, goroutine completion order, addresses) come
// from and whether they reach wire output — an io.Writer, a hash
// state, binary.Write — directly or through a summarized callee.
//
// Three sanitizer families keep the canonical SPARTAN idioms clean:
//
//   - sorted keys: sort.Strings/Ints/Float64s/Slice/Sort (and the
//     slices package equivalents) erase order taint from the sorted
//     variable — collect map keys, sort, iterate is deterministic;
//   - seeded sources: rand.New(rand.NewSource(seed)) carries only the
//     seed's taint, so a fixed-seed sampler is deterministic while the
//     shared global source is not;
//   - commutative accumulators: integer +=, *=, ^=, |=, &= over a map
//     range are order-insensitive (XOR/sum of per-element hashes), as
//     is writing into a map or an element-keyed slot; string/float
//     accumulation and last-writer-wins assignments are not.
//
// An extremal-selection assignment (argmax over a map) is
// deterministic only when its guard totally orders the candidates —
// a strict comparison involving the range key breaks ties; a guard on
// the value alone picks an arbitrary winner among equals.
package effects

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Step is one hop of an effect path, rendered as a Diagnostic.Related
// location. Steps inside the analyzed package carry Pos; steps known
// only through a serialized fact carry a pre-resolved Position.
type Step struct {
	Pos      token.Pos
	Position analysis.Position
	Msg      string
}

// NondetFinding is one nondeterministic value reaching a wire sink,
// with its source→sink path.
type NondetFinding struct {
	Pos   token.Pos // sink position
	Kind  string
	Sink  string // human description of the sink
	Var   string // source expression rendering, for the message
	Steps []Step
}

// nondetInfo is everything the engine learns about one function.
type nondetInfo struct {
	Findings     []NondetFinding
	ResultNondet []NondetResult
	ParamWrites  []WriteParam
}

// NondetFindings runs the nondeterminism engine over one declaration
// and returns the wire-sink findings; detorder's entry point.
func NondetFindings(fset *token.FileSet, info *types.Info, decl *ast.FuncDecl, lookup Lookup) []NondetFinding {
	return analyzeNondet(fset, info, decl, lookup).Findings
}

// taints maps a taint kind — a Kind* constant or "param:N" — to the
// path explaining how the value acquired it.
type taints map[string][]Step

func (t taints) clone() taints {
	if len(t) == 0 {
		return nil
	}
	out := make(taints, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// join merges o into t, keeping t's existing chains, and returns the
// (possibly newly allocated) result.
func (t taints) join(o taints) taints {
	if len(o) == 0 {
		return t
	}
	if t == nil {
		t = make(taints, len(o))
	}
	for k, v := range o {
		if _, ok := t[k]; !ok {
			t[k] = v
		}
	}
	return t
}

const paramKindPrefix = "param:"

func paramKind(i int) string { return paramKindPrefix + strconv.Itoa(i) }

// orderCtx is one enclosing range-over-map (or channel) loop: values
// derived from its iteration variables arrive in nondeterministic
// order.
type orderCtx struct {
	kind    string // KindMapOrder or KindChanOrder
	pos     token.Pos
	keyVar  *types.Var          // the range key (map key), nil for channels
	derived map[*types.Var]bool // loop vars + body vars derived from them
}

type nondetEngine struct {
	fset   *token.FileSet
	info   *types.Info
	lookup Lookup
	decl   *ast.FuncDecl
	params []*types.Var

	state  map[*types.Var]taints
	orders []*orderCtx

	record   bool // findings are collected only on the final pass
	findings []NondetFinding
	seen     map[string]bool // finding dedup across kinds/positions

	resultNondet map[string]NondetResult // keyed result|kind
	paramWrites  map[int]WriteParam
}

// analyzeNondet runs the engine: one warm-up pass to reach a state
// fixpoint across loop-carried flows, then a recording pass that
// collects findings, result taints and parameter write flows.
func analyzeNondet(fset *token.FileSet, info *types.Info, decl *ast.FuncDecl, lookup Lookup) *nondetInfo {
	e := &nondetEngine{
		fset:         fset,
		info:         info,
		lookup:       lookup,
		decl:         decl,
		params:       callgraph.ParamVars(decl, info),
		state:        map[*types.Var]taints{},
		seen:         map[string]bool{},
		resultNondet: map[string]NondetResult{},
		paramWrites:  map[int]WriteParam{},
	}
	e.seedParams()
	e.stmt(decl.Body)
	e.record = true
	e.stmt(decl.Body)

	out := &nondetInfo{Findings: e.findings}
	for _, nr := range e.resultNondet {
		out.ResultNondet = append(out.ResultNondet, nr)
	}
	sortNondetResults(out.ResultNondet)
	for _, wp := range e.paramWrites {
		out.ParamWrites = append(out.ParamWrites, wp)
	}
	sortWriteParams(out.ParamWrites)
	return out
}

// seedParams taints each data-carrying parameter with its own
// param:N kind so flows into sinks surface as WriteParams. Writer-like
// parameters are destinations, not data, and are left clean.
func (e *nondetEngine) seedParams() {
	for i, p := range e.params {
		if p == nil || isWriterLike(p.Type()) {
			continue
		}
		e.state[p] = taints{paramKind(i): {{Pos: p.Pos(), Msg: fmt.Sprintf("parameter %q enters here", p.Name())}}}
	}
}

// ---- statement walk ----

func (e *nondetEngine) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			e.stmt(st)
		}
	case *ast.AssignStmt:
		e.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v, _ := e.info.Defs[name].(*types.Var)
					if v == nil {
						continue
					}
					if i < len(vs.Values) {
						e.state[v] = e.expr(vs.Values[i]).clone()
					}
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			e.stmt(s.Init)
		}
		e.expr(s.Cond)
		e.stmt(s.Body)
		if s.Else != nil {
			e.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			e.stmt(s.Init)
		}
		if s.Cond != nil {
			e.expr(s.Cond)
		}
		if s.Post != nil {
			e.stmt(s.Post)
		}
		e.stmt(s.Body)
	case *ast.RangeStmt:
		e.rangeStmt(s)
	case *ast.ExprStmt:
		if e.sanitize(s.X) {
			return
		}
		e.expr(s.X)
	case *ast.ReturnStmt:
		e.returnStmt(s)
	case *ast.DeferStmt:
		if _, lit := s.Call.Fun.(*ast.FuncLit); !lit {
			e.expr(s.Call)
		}
	case *ast.GoStmt:
		if _, lit := s.Call.Fun.(*ast.FuncLit); !lit {
			e.expr(s.Call)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			e.stmt(s.Init)
		}
		if s.Tag != nil {
			e.expr(s.Tag)
		}
		e.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			e.stmt(s.Init)
		}
		e.stmt(s.Assign)
		e.stmt(s.Body)
	case *ast.SelectStmt:
		e.stmt(s.Body)
	case *ast.CaseClause:
		for _, st := range s.Body {
			e.stmt(st)
		}
	case *ast.CommClause:
		if s.Comm != nil {
			e.stmt(s.Comm)
		}
		for _, st := range s.Body {
			e.stmt(st)
		}
	case *ast.LabeledStmt:
		e.stmt(s.Stmt)
	case *ast.SendStmt:
		// Values sent on a channel surface at receives from it.
		if ch := rootVarOf(e.info, s.Chan); ch != nil {
			e.state[ch] = e.state[ch].join(e.expr(s.Value))
		}
	}
}

func (e *nondetEngine) rangeStmt(s *ast.RangeStmt) {
	xt := e.expr(s.X)
	var ctx *orderCtx
	switch e.info.TypeOf(s.X).Underlying().(type) {
	case *types.Map:
		ctx = &orderCtx{kind: KindMapOrder, pos: s.Pos(), derived: map[*types.Var]bool{}}
	case *types.Chan:
		ctx = &orderCtx{kind: KindChanOrder, pos: s.Pos(), derived: map[*types.Var]bool{}}
	}
	bind := func(expr ast.Expr, isKey bool) {
		id, ok := expr.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		v, _ := e.info.Defs[id].(*types.Var)
		if v == nil {
			v, _ = e.info.Uses[id].(*types.Var)
		}
		if v == nil {
			return
		}
		t := xt.clone()
		if ctx != nil {
			// The bound variable itself is order-dependent: observing it
			// at a sink (or returning it) exposes iteration order. The
			// assignment rules in orderTaint strip this again for the
			// keyed-store / commutative-accumulator / tie-broken idioms.
			what := "map iterated in nondeterministic order"
			if ctx.kind == KindChanOrder {
				what = "channel received in goroutine completion order"
			}
			t = t.join(taints{ctx.kind: {{Pos: s.Pos(), Msg: what}}})
			ctx.derived[v] = true
			if isKey && ctx.kind == KindMapOrder {
				ctx.keyVar = v
			}
		}
		e.state[v] = t
	}
	if s.Key != nil {
		bind(s.Key, true)
	}
	if s.Value != nil {
		bind(s.Value, false)
	}
	if ctx != nil {
		e.orders = append(e.orders, ctx)
		e.stmt(s.Body)
		e.orders = e.orders[:len(e.orders)-1]
	} else {
		e.stmt(s.Body)
	}
}

func (e *nondetEngine) returnStmt(s *ast.ReturnStmt) {
	if !e.record {
		return
	}
	exprs := s.Results
	if len(exprs) == 0 && e.decl.Type.Results != nil {
		// Naked return with named results: read the result variables.
		for _, f := range e.decl.Type.Results.List {
			for _, name := range f.Names {
				exprs = append(exprs, ast.Expr(name))
			}
		}
	}
	for i, r := range exprs {
		for kind, steps := range e.expr(r) {
			if strings.HasPrefix(kind, paramKindPrefix) {
				continue // param→result flows are funcsummary's job
			}
			key := fmt.Sprintf("%d|%s", i, kind)
			if _, ok := e.resultNondet[key]; ok {
				continue
			}
			nr := NondetResult{Result: i, Kind: kind, Pos: analysis.PositionOf(e.fset, s.Pos())}
			if len(steps) > 0 {
				if steps[0].Pos.IsValid() {
					nr.Pos = analysis.PositionOf(e.fset, steps[0].Pos)
				} else {
					nr.Pos = steps[0].Position
				}
				if via := viaOf(steps); via != "" {
					nr.Via = via
				}
			}
			e.resultNondet[key] = nr
		}
	}
}

// kindPhrase renders a nondeterminism kind as a source-step message.
func kindPhrase(kind string) string {
	switch kind {
	case KindMapOrder:
		return "map iterated in nondeterministic order here"
	case KindChanOrder:
		return "channel received in goroutine completion order here"
	case KindTime:
		return "wall clock read here"
	case KindRand:
		return "shared math/rand source drawn here"
	case KindAddr:
		return "memory address observed here"
	}
	return "nondeterministic value (" + kind + ") originates here"
}

// viaOf extracts a callee name recorded in a "returned by F" step.
func viaOf(steps []Step) string {
	for _, s := range steps {
		if name, ok := strings.CutPrefix(s.Msg, "returned by "); ok {
			return name
		}
	}
	return ""
}

// ---- assignment and order sensitivity ----

func (e *nondetEngine) assign(s *ast.AssignStmt) {
	// Multi-value form: x, y := f().
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		var per []taints
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			per = e.call(call)
		} else {
			t := e.expr(s.Rhs[0])
			per = make([]taints, len(s.Lhs))
			for i := range per {
				per[i] = t
			}
		}
		for i, lhs := range s.Lhs {
			var t taints
			if i < len(per) {
				t = per[i]
			}
			e.assignOne(s, lhs, t, nil)
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		e.assignOne(s, lhs, e.expr(s.Rhs[i]), s.Rhs[i])
	}
}

// assignOne updates the state for one lhs := t and applies the
// order-sensitivity rules when the assignment happens inside a
// range-over-map (or channel) loop.
func (e *nondetEngine) assignOne(s *ast.AssignStmt, lhs ast.Expr, t taints, rhs ast.Expr) {
	v := rootVarOf(e.info, lhs)
	if v == nil {
		return
	}
	_, isIdent := ast.Unparen(lhs).(*ast.Ident)
	if ctx := e.innerOrder(); ctx != nil {
		// Judge the assignment before marking the target derived: for an
		// outer variable the first derived-value assignment is exactly
		// the one the last-writer-wins / tie-broken rules must see.
		loopLocal := ctx.derived[v] || v.Pos() > ctx.pos
		ot := e.orderTaint(s, lhs, rhs, ctx)
		if isIdent && rhs != nil && e.mentionsDerived(rhs, ctx) {
			ctx.derived[v] = true
		}
		if ot != nil {
			t = t.clone().join(ot)
		} else if !loopLocal {
			// The rule engine excused this assignment (keyed store,
			// commutative accumulator, tie-broken selection): the order
			// taint the operands carry does not escape the loop into an
			// outer variable or container.
			t = t.clone()
			delete(t, ctx.kind)
		}
	}
	// A commutative integer fold (fp |= bit, sum += n, h ^= digest) is
	// order-free even when its operands arrived in nondeterministic
	// order — e.g. iterating a slice of map-collected keys: the fold
	// over the whole set is a pure function of the set. The wall clock
	// and random kinds stay: summing clock readings is still nondet.
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE && !isOrderSensitiveOp(s.Tok, e.info.TypeOf(lhs)) {
		t = t.clone()
		delete(t, KindMapOrder)
		delete(t, KindChanOrder)
	}
	switch {
	case isIdent && (s.Tok == token.ASSIGN || s.Tok == token.DEFINE):
		e.state[v] = t.clone()
	default:
		// Compound assign or write through a selector/index: weak join.
		e.state[v] = e.state[v].join(t)
	}
}

// innerOrder returns the innermost enclosing order context, or nil.
func (e *nondetEngine) innerOrder() *orderCtx {
	if len(e.orders) == 0 {
		return nil
	}
	return e.orders[len(e.orders)-1]
}

// orderTaint decides whether this assignment makes its target depend
// on iteration order, returning the taint to add or nil for the
// recognized commutative/keyed/tie-broken idioms.
func (e *nondetEngine) orderTaint(s *ast.AssignStmt, lhs ast.Expr, rhs ast.Expr, ctx *orderCtx) taints {
	v := rootVarOf(e.info, lhs)
	if v == nil || ctx.derived[v] {
		return nil // iteration-local accumulation dies with the iteration
	}
	if v.Pos() > ctx.pos {
		return nil // declared inside the loop: per-iteration variable
	}
	mk := func(how string, pos token.Pos) taints {
		what := "map"
		if ctx.kind == KindChanOrder {
			what = "channel (goroutine completion order)"
		}
		return taints{ctx.kind: {
			{Pos: ctx.pos, Msg: fmt.Sprintf("%s iterated in nondeterministic order", what)},
			{Pos: pos, Msg: how},
		}}
	}

	// Keyed stores are order-independent: m[k] = v, slot[key] = v.
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if _, isMap := e.info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
			return nil
		}
		if e.mentionsDerived(ix.Index, ctx) {
			return nil // element-keyed slot
		}
		if rhs != nil && e.mentionsDerived(rhs, ctx) {
			return mk(fmt.Sprintf("stored at an order-dependent position into %q", exprText(e.fset, ix.X)), s.Pos())
		}
		return nil
	}

	// append: order-sensitive when the appended values are derived from
	// the iteration (collecting keys); a constant per element only
	// changes the deterministic length.
	if call, ok := ast.Unparen(firstRhsCall(rhs)).(*ast.CallExpr); ok && isBuiltin(e.info, call, "append") {
		for _, arg := range call.Args[1:] {
			if e.mentionsDerived(arg, ctx) {
				return mk(fmt.Sprintf("appended in iteration order to %q", v.Name()), s.Pos())
			}
		}
		return nil
	}

	// An rhs with no iteration-derived operand (count += 1, loop-
	// invariant assignments) produces the same value every order.
	if rhs == nil || !e.mentionsDerived(rhs, ctx) {
		return nil
	}

	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.XOR_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN:
		if !isOrderSensitiveOp(s.Tok, e.info.TypeOf(lhs)) {
			return nil // commutative integer accumulator (sum/XOR of hashes)
		}
		return mk(fmt.Sprintf("accumulated order-sensitively into %q (%s on %s)", v.Name(), s.Tok, e.info.TypeOf(lhs)), s.Pos())
	case token.QUO_ASSIGN, token.REM_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
		return mk(fmt.Sprintf("accumulated order-sensitively into %q (%s)", v.Name(), s.Tok), s.Pos())
	}

	// Plain assignment of a derived value to an outer variable:
	// last-writer-wins unless the enclosing guard totally orders the
	// candidates via the range key.
	if e.tieBroken(s, ctx) {
		return nil
	}
	return mk(fmt.Sprintf("assigned to %q; the winning iteration depends on map order", v.Name()), s.Pos())
}

// isOrderSensitiveOp reports whether a compound accumulation of this
// token over type t depends on operand order: float and complex
// arithmetic is non-associative, string += concatenates in order;
// integer +,-,*,^,|,& are commutative and associative (mod 2ⁿ).
func isOrderSensitiveOp(tok token.Token, t types.Type) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		if t == nil {
			return true
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok {
			return true
		}
		info := b.Info()
		if info&types.IsInteger != 0 {
			return false
		}
		return true // float, complex, string
	case token.XOR_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN:
		return false
	}
	return true
}

// tieBroken reports whether the innermost if-guard around s totally
// orders the selection: a strict comparison with the range key as an
// operand breaks ties deterministically. A guard comparing only the
// value picks an arbitrary winner among equal values.
func (e *nondetEngine) tieBroken(s *ast.AssignStmt, ctx *orderCtx) bool {
	if ctx.keyVar == nil {
		return false
	}
	var guard ast.Expr
	ast.Inspect(e.decl.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if ifs.Body.Pos() <= s.Pos() && s.End() <= ifs.Body.End() {
			guard = ifs.Cond // innermost wins: keep descending
		}
		return true
	})
	if guard == nil {
		return false
	}
	broken := false
	ast.Inspect(guard, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			if e.usesVar(b.X, ctx.keyVar) || e.usesVar(b.Y, ctx.keyVar) {
				broken = true
			}
		}
		return !broken
	})
	return broken
}

func (e *nondetEngine) usesVar(expr ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && e.info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// mentionsDerived reports whether expr uses a variable whose value was
// produced by the current iteration of ctx's loop.
func (e *nondetEngine) mentionsDerived(expr ast.Expr, ctx *orderCtx) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, _ := e.info.Uses[id].(*types.Var); v != nil && ctx.derived[v] {
				found = true
			}
		}
		return !found
	})
	return found
}

func firstRhsCall(rhs ast.Expr) ast.Expr {
	if rhs == nil {
		return &ast.BadExpr{}
	}
	return rhs
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// ---- expression taint ----

func (e *nondetEngine) expr(x ast.Expr) taints {
	switch x := x.(type) {
	case *ast.Ident:
		if v, _ := e.info.Uses[x].(*types.Var); v != nil {
			return e.state[v]
		}
		return nil
	case *ast.BasicLit, *ast.FuncLit:
		return nil
	case *ast.ParenExpr:
		return e.expr(x.X)
	case *ast.BinaryExpr:
		return e.expr(x.X).clone().join(e.expr(x.Y))
	case *ast.UnaryExpr:
		t := e.expr(x.X)
		if x.Op == token.ARROW {
			// A plain receive yields whatever was sent; completion-order
			// nondeterminism is modelled at range-over-channel loops.
			return t
		}
		return t
	case *ast.StarExpr:
		return e.expr(x.X)
	case *ast.SelectorExpr:
		if id := unparenIdent(x.X); id != nil {
			if _, isPkg := e.info.Uses[id].(*types.PkgName); isPkg {
				return nil // qualified identifier pkg.X
			}
		}
		return e.expr(x.X)
	case *ast.IndexExpr:
		return e.expr(x.X).clone().join(e.expr(x.Index))
	case *ast.IndexListExpr:
		return e.expr(x.X)
	case *ast.SliceExpr:
		return e.expr(x.X)
	case *ast.TypeAssertExpr:
		return e.expr(x.X)
	case *ast.CompositeLit:
		var t taints
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = t.clone().join(e.expr(el))
		}
		return t
	case *ast.CallExpr:
		per := e.call(x)
		if len(per) == 1 {
			return per[0]
		}
		var t taints
		for _, p := range per {
			t = t.clone().join(p)
		}
		return t
	}
	return nil
}

func unparenIdent(x ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(x).(*ast.Ident)
	return id
}

// call computes per-result taints for a call and checks it against the
// wire sinks. This is the one place every CallExpr flows through.
func (e *nondetEngine) call(call *ast.CallExpr) []taints {
	callee, dynamic, isCall := callgraph.StaticCallee(e.info, call)
	if !isCall {
		return e.conversionOrBuiltin(call)
	}

	e.checkSink(call, callee, dynamic)

	joinArgs := func() taints {
		var t taints
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			t = t.clone().join(e.expr(sel.X))
		}
		for _, a := range call.Args {
			t = t.clone().join(e.expr(a))
		}
		return t
	}

	if callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "time":
			switch callee.Name() {
			case "Now", "Since", "Until":
				return []taints{{KindTime: {{Pos: call.Pos(), Msg: "reads the wall clock"}}}}
			}
		case "math/rand", "math/rand/v2":
			sig, _ := callee.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil {
				// Method on a source or Rand value: deterministic iff the
				// source is (rand.New(rand.NewSource(seed)) carries only
				// the seed's taint).
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					return resultsOf(call, e.info, e.expr(sel.X))
				}
				return nil
			}
			switch callee.Name() {
			case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
				return resultsOf(call, e.info, joinArgs())
			default:
				return resultsOf(call, e.info, taints{KindRand: {{Pos: call.Pos(), Msg: "draws from the shared math/rand source"}}})
			}
		case "fmt":
			switch callee.Name() {
			case "Sprintf", "Sprint", "Sprintln", "Appendf", "Append", "Appendln", "Errorf":
				t := joinArgs()
				if fmtHasAddrVerb(call, 0) {
					t = t.clone().join(taints{KindAddr: {{Pos: call.Pos(), Msg: "formats a memory address (%p)"}}})
				}
				return resultsOf(call, e.info, t)
			}
		case "sort", "slices":
			// Order-erasing helpers: handled as sanitizers at statement
			// level; their results carry only the operand's remaining
			// taints.
			return resultsOf(call, e.info, joinArgs())
		case "maps":
			switch callee.Name() {
			case "Keys", "Values":
				return resultsOf(call, e.info, joinArgs().clone().join(
					taints{KindMapOrder: {{Pos: call.Pos(), Msg: "map iterated in nondeterministic order"}}}))
			}
		case "encoding/binary":
			// ByteOrder.PutUintNN(b, v) and binary.Append encode v into
			// their destination argument: the value's taint moves into it.
			if strings.HasPrefix(callee.Name(), "Put") || strings.HasPrefix(callee.Name(), "Append") {
				if len(call.Args) >= 2 {
					if dst := e.localStream(call.Args[0]); dst != nil {
						var t taints
						for _, a := range call.Args[1:] {
							t = t.clone().join(e.expr(a))
						}
						e.state[dst] = e.state[dst].join(t)
					}
				}
				return resultsOf(call, e.info, joinArgs())
			}
		}
	}

	// Module callee with a summary: results inherit its NondetResults.
	if sum := e.lookupSummary(callee, dynamic); sum != nil {
		per := make([]taints, numResults(call, e.info))
		for _, nr := range sum.NondetResults {
			if nr.Result < 0 || nr.Result >= len(per) {
				continue
			}
			src := Step{Position: nr.Pos, Msg: kindPhrase(nr.Kind)}
			via := Step{Pos: call.Pos(), Msg: "returned by " + callee.Name()}
			per[nr.Result] = per[nr.Result].clone().join(taints{nr.Kind: {src, via}})
		}
		// Value passthrough keeps caller-side taints flowing too.
		pass := joinArgs()
		for i := range per {
			per[i] = per[i].clone().join(pass)
		}
		return per
	}

	// Unknown callee: conservative value passthrough.
	return resultsOf(call, e.info, joinArgs())
}

func (e *nondetEngine) lookupSummary(callee *types.Func, dynamic bool) *FuncEffects {
	if callee == nil || dynamic || e.lookup == nil {
		return nil
	}
	return e.lookup(callee)
}

// conversionOrBuiltin handles CallExprs that are not function calls.
func (e *nondetEngine) conversionOrBuiltin(call *ast.CallExpr) []taints {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := e.info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "len", "cap", "make", "new":
				return nil // deterministic regardless of operand order taint
			}
			var t taints
			for _, a := range call.Args {
				t = t.clone().join(e.expr(a))
			}
			return []taints{t}
		}
	}
	// Conversion: value passthrough, plus uintptr(unsafe.Pointer(p)) is
	// an address observation.
	var t taints
	for _, a := range call.Args {
		t = t.clone().join(e.expr(a))
	}
	if tt := e.info.TypeOf(call); tt != nil && len(call.Args) == 1 {
		if b, ok := tt.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
			if at := e.info.TypeOf(call.Args[0]); at != nil {
				if ab, ok := at.Underlying().(*types.Basic); ok && ab.Kind() == types.UnsafePointer {
					t = t.clone().join(taints{KindAddr: {{Pos: call.Pos(), Msg: "observes a memory address via unsafe.Pointer"}}})
				}
			}
		}
	}
	return []taints{t}
}

// resultsOf replicates one taint across every result of the call.
func resultsOf(call *ast.CallExpr, info *types.Info, t taints) []taints {
	n := numResults(call, info)
	per := make([]taints, n)
	for i := range per {
		per[i] = t
	}
	return per
}

func numResults(call *ast.CallExpr, info *types.Info) int {
	tt := info.TypeOf(call)
	if tt == nil {
		return 1
	}
	if tup, ok := tt.(*types.Tuple); ok {
		return tup.Len()
	}
	return 1
}

// ---- sanitizers ----

// sanitize recognizes order-erasing statements — sort.X(v) and the
// slices equivalents — clearing map/channel-order taint from the
// sorted variable. Returns true when the statement was consumed.
func (e *nondetEngine) sanitize(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	callee, _, isCall := callgraph.StaticCallee(e.info, call)
	if !isCall || callee == nil || callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() {
	case "sort":
		switch callee.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
		default:
			return false
		}
	case "slices":
		switch callee.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
		default:
			return false
		}
	default:
		return false
	}
	v := rootVarOf(e.info, call.Args[0])
	if v == nil {
		return false
	}
	t := e.state[v]
	if t == nil {
		return true
	}
	nt := t.clone()
	delete(nt, KindMapOrder)
	delete(nt, KindChanOrder)
	e.state[v] = nt
	return true
}

// ---- wire sinks ----

// checkSink reports nondeterministic values reaching wire output and
// records param→writer flows for the function's own summary.
func (e *nondetEngine) checkSink(call *ast.CallExpr, callee *types.Func, dynamic bool) {
	type sinkArg struct {
		expr   ast.Expr
		desc   string
		stream ast.Expr // the writer operand; nil for summarized sinks
	}
	var args []sinkArg

	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && callee != nil {
		switch callee.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			if rt := e.info.TypeOf(sel.X); rt != nil && isWriterLike(rt) && !isConsoleWriter(e.info, sel.X) && len(call.Args) > 0 {
				desc := "written to the output stream"
				if isHashLike(rt) {
					desc = "hashed into a fingerprint"
				}
				for _, a := range call.Args {
					args = append(args, sinkArg{a, desc, sel.X})
				}
			}
		}
	}
	if callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "encoding/binary":
			if callee.Name() == "Write" && len(call.Args) == 3 {
				args = append(args, sinkArg{call.Args[2], "encoded by binary.Write", call.Args[0]})
			}
		case "fmt":
			switch callee.Name() {
			case "Fprintf", "Fprint", "Fprintln":
				if len(call.Args) > 0 && !isConsoleWriter(e.info, call.Args[0]) {
					for _, a := range call.Args[1:] {
						args = append(args, sinkArg{a, "formatted into the output stream", call.Args[0]})
					}
					if callee.Name() == "Fprintf" && fmtHasAddrVerb(call, 1) {
						if sv := e.localStream(call.Args[0]); sv != nil {
							e.state[sv] = e.state[sv].join(taints{KindAddr: {{Pos: call.Pos(), Msg: "formats a memory address (%p) into the buffer"}}})
						} else {
							e.report(call.Pos(), KindAddr, "formatted into the output stream", exprText(e.fset, call.Args[0]),
								[]Step{{Pos: call.Pos(), Msg: "formats a memory address (%p) into the stream"}})
						}
					}
				}
			}
		}
	}
	// Calls into summarized writer helpers: each WriteParam is a sink
	// for the corresponding argument.
	if sum := e.lookupSummary(callee, dynamic); sum != nil {
		for _, wp := range sum.WriteParams {
			a := callgraph.ArgExpr(call, callee, wp.Param)
			if a == nil {
				continue
			}
			args = append(args, sinkArg{a, fmt.Sprintf("passed to %s, which writes it to the output stream", callee.Name()), nil})
		}
	}

	for _, sa := range args {
		t := e.expr(sa.expr)
		// Writing into a function-local buffer or hash is not wire output
		// yet: the taint moves into the stream variable and surfaces only
		// if its bytes reach a real sink (w.Write(buf.Bytes())). A local
		// digest XOR-folded into a fingerprint stays clean.
		if sv := e.localStream(sa.stream); sv != nil {
			absorbed := taints{}
			for kind, steps := range t {
				grown := make([]Step, len(steps), len(steps)+1)
				copy(grown, steps)
				grown = append(grown, Step{Pos: call.Pos(), Msg: fmt.Sprintf("written into %q here", sv.Name())})
				absorbed[kind] = grown
			}
			e.state[sv] = e.state[sv].join(absorbed)
			if ctx := e.innerOrder(); ctx != nil {
				if _, ok := absorbed[ctx.kind]; ok || e.mentionsDerived(sa.expr, ctx) {
					ctx.derived[sv] = true
				}
			}
			continue
		}
		for kind, steps := range t {
			if pi, ok := strings.CutPrefix(kind, paramKindPrefix); ok {
				if n, err := strconv.Atoi(pi); err == nil {
					if _, have := e.paramWrites[n]; !have {
						wp := WriteParam{Param: n, Pos: analysis.PositionOf(e.fset, call.Pos())}
						if callee != nil && strings.Contains(sa.desc, "passed to") {
							wp.Via = callee.Name()
						}
						e.paramWrites[n] = wp
					}
				}
				continue
			}
			e.report(call.Pos(), kind, sa.desc, exprText(e.fset, sa.expr), steps)
		}
	}
}

// localStream resolves a writer operand to a function-local variable,
// or nil when the stream is a parameter, a field reached through one,
// or a package-level writer — those carry bytes out of the function,
// so writes to them are real sinks.
func (e *nondetEngine) localStream(stream ast.Expr) *types.Var {
	if stream == nil {
		return nil
	}
	v := rootVarOf(e.info, stream)
	if v == nil {
		return nil
	}
	for _, p := range e.params {
		if p == v {
			return nil
		}
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

func (e *nondetEngine) report(pos token.Pos, kind, sinkDesc, varText string, steps []Step) {
	if !e.record {
		return
	}
	key := fmt.Sprintf("%d|%s", pos, kind)
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	full := make([]Step, 0, len(steps)+1)
	full = append(full, steps...)
	if len(full) > 7 {
		full = full[:7]
	}
	full = append(full, Step{Pos: pos, Msg: sinkDesc})
	e.findings = append(e.findings, NondetFinding{Pos: pos, Kind: kind, Sink: sinkDesc, Var: varText, Steps: full})
}

// ---- type and expression helpers ----

// isWriterLike duck-types t (or *t) against io.Writer's Write method:
// Write([]byte) (int, error).
func isWriterLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if hasWriteMethod(t) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr && !types.IsInterface(t) {
		return hasWriteMethod(types.NewPointer(t))
	}
	return false
}

func hasWriteMethod(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i)
		if m.Obj().Name() != "Write" {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
			continue
		}
		if s, ok := sig.Params().At(0).Type().(*types.Slice); ok {
			if b, ok := s.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		}
	}
	return false
}

// isHashLike reports a hash-state receiver: it has both the Write
// method and a SumNN/Sum method, the hash.Hash shape.
func isHashLike(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Sum", "Sum32", "Sum64", "BlockSize":
			return true
		}
	}
	return false
}

// isConsoleWriter recognizes os.Stdout/os.Stderr destinations: console
// output (progress, stats) is allowed to be nondeterministic.
func isConsoleWriter(info *types.Info, w ast.Expr) bool {
	sel, ok := ast.Unparen(w).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isPkg := info.Uses[pkg].(*types.PkgName); !isPkg {
		return false
	}
	return pkg.Name == "os" && (sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr")
}

// fmtHasAddrVerb reports a %p verb in the constant format argument.
func fmtHasAddrVerb(call *ast.CallExpr, fmtArg int) bool {
	if fmtArg >= len(call.Args) {
		return false
	}
	lit, ok := ast.Unparen(call.Args[fmtArg]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return false
	}
	return strings.Contains(s, "%p")
}

// rootVarOf resolves the variable at the base of an lvalue-ish
// expression: x, x.f, x[i], *x, (&x).f.
func rootVarOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok {
				return v
			}
			if v, ok := info.Defs[x].(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func exprText(fset *token.FileSet, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if id := unparenIdent(x.X); id != nil {
			return id.Name + "." + x.Sel.Name
		}
		return x.Sel.Name
	case *ast.CallExpr:
		return exprText(fset, x.Fun) + "(…)"
	}
	return "value"
}

func sortNondetResults(nrs []NondetResult) {
	for i := 1; i < len(nrs); i++ {
		for j := i; j > 0; j-- {
			a, b := nrs[j-1], nrs[j]
			if a.Result < b.Result || (a.Result == b.Result && a.Kind <= b.Kind) {
				break
			}
			nrs[j-1], nrs[j] = b, a
		}
	}
}

func sortWriteParams(wps []WriteParam) {
	for i := 1; i < len(wps); i++ {
		for j := i; j > 0 && wps[j-1].Param > wps[j].Param; j-- {
			wps[j-1], wps[j] = wps[j], wps[j-1]
		}
	}
}
