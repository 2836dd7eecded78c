package vrange

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/dataflow"
)

// Site is one slice index or slice-expression bound the engine
// examined: either proved in bounds or left for the analyzers to
// judge by the value's derivation.
type Site struct {
	// Kind is "index" or "slice bound" for local sites, or the
	// callee's What when lifted from a callee IndexParam.
	Kind string
	// Expr is the index/bound expression (the call argument for lifted
	// sites); Base the indexed expression (nil for lifted sites).
	Expr ast.Expr
	Base ast.Expr
	Pos  token.Pos
	// AllowEq: the site tolerates index == len (slice bounds do,
	// element indexing does not).
	AllowEq bool
	// Proven: the range analysis discharged the bounds proof.
	Proven bool
	// Deriv is the origin of the index value (wire / parameters).
	Deriv Deriv
	// Callee is set when the site was lifted from a callee's
	// IndexParam; CalleePos locates the site inside the callee.
	Callee    *types.Func
	CalleePos analysis.Position
	Via       string

	// baseParam/idxParam record pristine parameter indices of the
	// indexed slice and the index value (-1 when not parameters), for
	// the function's own IndexParam summary entries.
	baseParam, idxParam int
}

// FuncResult is the engine's full output for one function.
type FuncResult struct {
	Decl *ast.FuncDecl
	// ExprIv holds the proved interval of every integer-valued
	// expression visited during the recording sweep.
	ExprIv map[ast.Expr]Interval
	// Sites lists every index/slice-bound site in body order.
	Sites []*Site
	// Range is the function's serializable summary.
	Range *FuncRange

	siteByExpr map[ast.Expr]*Site
	params     []*types.Var
}

// IvOf returns the proved interval of an expression, or Top. Nil-safe,
// like Bounded and SiteProven, so range-aware clients degrade to
// no-proof when no result is available.
func (fr *FuncResult) IvOf(x ast.Expr) Interval {
	if fr == nil {
		return Top()
	}
	if i, ok := fr.ExprIv[x]; ok {
		return i
	}
	return Top()
}

// Bounded reports a proved finite upper bound for an expression — the
// filter that retires a taint sink: a bounded size cannot drive an
// unbounded allocation no matter where it came from.
func (fr *FuncResult) Bounded(x ast.Expr) bool {
	if fr == nil {
		return false
	}
	return fr.IvOf(x).BoundedAbove()
}

// SiteProven reports that the index/bound expression belongs to a site
// the engine proved in bounds.
func (fr *FuncResult) SiteProven(x ast.Expr) bool {
	if fr == nil {
		return false
	}
	s, ok := fr.siteByExpr[x]
	return ok && s.Proven
}

// val is an expression's abstract value: interval plus derivation.
type val struct {
	iv Interval
	dv Deriv
}

// Engine runs the interval analysis over one function body as a
// forward dataflow.Problem with edge refinement and widening, then
// sweeps the fixpoint deterministically to record expression
// intervals, index sites and the function's range summary.
type Engine struct {
	Fset   *token.FileSet
	Info   *types.Info
	Lookup RLookup

	fr         *FuncResult
	params     []*types.Var
	results    []*types.Var
	resultIvs  []Interval
	resultMin  []map[int]bool // nil until the first return is seen
	resultDv   []Deriv
	resultLen  []map[int]bool // SameLenAs accumulator, nil until first return
	condSet    map[ast.Expr]bool
	record     bool
	pristineIn map[*types.Var]int // param var → index, for summary checks
}

// sourceFuncs are the untrusted wire reads (FullName → wire-derived
// result index), matching the taint engine's set.
var sourceFuncs = map[string]int{
	"encoding/binary.ReadUvarint": 0,
	"encoding/binary.ReadVarint":  0,
	"encoding/binary.Uvarint":     0,
	"encoding/binary.Varint":      0,
}

// Run analyzes one declaration.
func (e *Engine) Run(decl *ast.FuncDecl) *FuncResult {
	e.fr = &FuncResult{
		Decl:       decl,
		ExprIv:     map[ast.Expr]Interval{},
		siteByExpr: map[ast.Expr]*Site{},
	}
	e.params = callgraph.ParamVars(decl, e.Info)
	e.fr.params = e.params
	e.results = callgraph.ResultVars(decl, e.Info)
	nres := 0
	if decl.Type.Results != nil {
		for _, f := range decl.Type.Results.List {
			if len(f.Names) == 0 {
				nres++
			} else {
				nres += len(f.Names)
			}
		}
	}
	e.resultIvs = make([]Interval, nres)
	e.resultMin = make([]map[int]bool, nres)
	e.resultDv = make([]Deriv, nres)
	e.resultLen = make([]map[int]bool, nres)
	for i := range e.resultIvs {
		e.resultIvs[i] = Empty()
	}
	e.pristineIn = map[*types.Var]int{}
	for i, p := range e.params {
		if p != nil {
			e.pristineIn[p] = i
		}
	}
	if decl.Body == nil {
		e.fr.Range = e.makeRange(decl)
		return e.fr
	}

	e.condSet = map[ast.Expr]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			e.condSet[x.Cond] = true
		case *ast.ForStmt:
			if x.Cond != nil {
				e.condSet[x.Cond] = true
			}
		case *ast.FuncLit:
			return false // literals get their own frame; not descended
		}
		return true
	})

	g := cfg.New(decl.Body)
	e.record = false
	res := dataflow.Solve[*VState](g, vproblem{e})
	e.record = true
	for _, b := range g.Blocks {
		s := res.In[b]
		if s == nil {
			continue // unreachable
		}
		s = s.clone()
		for _, n := range b.Nodes {
			e.node(n, s)
		}
	}
	e.fr.Range = e.makeRange(decl)
	return e.fr
}

// seed is the entry state: parameters carry their own derivation bit;
// intervals default to the machine type range.
func (e *Engine) seed() *VState {
	s := newVState()
	for i, p := range e.params {
		if p == nil {
			continue
		}
		s.pristine[p] = true
		if i >= sourceBit || !isIntegerKind(p.Type()) {
			continue
		}
		s.dv[p] = Deriv{
			mask:  1 << uint(i),
			chain: &Step{Pos: p.Pos(), What: "parameter " + p.Name()},
		}
	}
	return s
}

// vproblem adapts the engine to the dataflow solver.
type vproblem struct{ e *Engine }

func (p vproblem) Direction() dataflow.Direction { return dataflow.Forward }
func (p vproblem) Boundary() *VState             { return p.e.seed() }
func (p vproblem) Init() *VState                 { return nil }

func (p vproblem) Join(a, b *VState) *VState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return joinState(a, b)
}

func (p vproblem) Equal(a, b *VState) bool { return equalState(a, b) }

func (p vproblem) Transfer(b *cfg.Block, in *VState) *VState {
	if in == nil {
		return nil
	}
	s := in.clone()
	for _, n := range b.Nodes {
		p.e.node(n, s)
	}
	return s
}

func (p vproblem) EdgeTransfer(from *cfg.Block, succIdx int, out *VState) *VState {
	if out == nil {
		return nil
	}
	if n := len(from.Nodes); n > 0 && len(from.Succs) == 2 {
		if rs, ok := from.Nodes[n-1].(*ast.RangeStmt); ok {
			if succIdx == 0 {
				return p.e.rangeBind(rs, out)
			}
			return out
		}
	}
	cond := p.e.branchCond(from)
	if cond == nil {
		return out
	}
	return p.e.refine(out.clone(), cond, succIdx == 0)
}

func (p vproblem) Widen(prev, next *VState) *VState {
	if prev == nil {
		return next
	}
	if next == nil {
		return prev
	}
	return widenState(prev, next)
}

// branchCond returns the block's trailing If/For condition when its
// two successors are that condition's true and false edges.
func (e *Engine) branchCond(b *cfg.Block) ast.Expr {
	if len(b.Succs) != 2 || len(b.Nodes) == 0 {
		return nil
	}
	expr, ok := b.Nodes[len(b.Nodes)-1].(ast.Expr)
	if !ok || !e.condSet[expr] {
		return nil
	}
	return expr
}

// --- statement transfer ---------------------------------------------------

func (e *Engine) node(n ast.Node, s *VState) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		e.assign(x, s)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					e.valueSpec(vs, s)
				}
			}
		}
	case *ast.ReturnStmt:
		e.returnStmt(x, s)
	case *ast.IncDecStmt:
		e.incDec(x, s)
	case *ast.ExprStmt:
		e.eval(x.X, s)
	case *ast.GoStmt:
		e.eval(x.Call, s)
	case *ast.DeferStmt:
		e.eval(x.Call, s)
	case *ast.SendStmt:
		e.eval(x.Chan, s)
		e.eval(x.Value, s)
	case *ast.RangeStmt:
		// The header node: evaluate the ranged expression and kill the
		// iteration variables; the body edge re-binds them with their
		// per-iteration facts (rangeBind).
		e.eval(x.X, s)
		for _, lhs := range []ast.Expr{x.Key, x.Value} {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if v := e.varOf(id); v != nil {
					e.killByType(v, s)
				}
			}
		}
	case *ast.LabeledStmt:
		e.node(x.Stmt, s)
	case ast.Expr:
		e.eval(x, s)
	}
}

func (e *Engine) incDec(x *ast.IncDecStmt, s *VState) {
	id, ok := x.X.(*ast.Ident)
	if !ok {
		e.eval(x.X, s)
		return
	}
	v := e.varOf(id)
	if v == nil || !isIntegerKind(v.Type()) {
		return
	}
	old := s.get(v)
	d := s.dv[v]
	s.killInt(v)
	var iv Interval
	if x.Tok == token.INC {
		iv = old.Add(Const(1))
	} else {
		iv = old.Sub(Const(1))
	}
	s.setIv(v, meetType(iv, v.Type()))
	if d.mask != 0 {
		s.dv[v] = d
	}
}

func (e *Engine) assign(x *ast.AssignStmt, s *VState) {
	for _, lhs := range x.Lhs {
		if _, ok := lhs.(*ast.Ident); !ok {
			e.eval(lhs, s) // arr[i] = v: the index is a site
		}
	}
	var vals []val
	if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
		vals = e.evalMulti(x.Rhs[0], len(x.Lhs), s)
	} else {
		for _, rhs := range x.Rhs {
			vals = append(vals, e.eval(rhs, s))
		}
	}
	single := len(x.Lhs) == 1 && len(x.Rhs) == 1
	for i, lhs := range x.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" || i >= len(vals) {
			continue
		}
		v := e.varOf(id)
		if v == nil {
			continue
		}
		var rhs ast.Expr
		if single {
			rhs = x.Rhs[0]
		} else if len(x.Rhs) == len(x.Lhs) {
			rhs = x.Rhs[i]
		}
		t := vals[i]
		if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
			// Compound assignment: v op= rhs; the rhs shape carries no
			// binding (v += len(s) does not make v a length of s).
			t = e.compound(x.Tok, v, t, s)
			rhs = nil
		}
		e.assignVar(v, t, rhs, x.Pos(), s)
	}
	// Cross-result length equalities from a summarized call.
	if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
		e.bindSameLen(x, s)
	}
}

// compound folds v op= rhs into a plain value.
func (e *Engine) compound(tok token.Token, v *types.Var, rhs val, s *VState) val {
	old := val{iv: s.get(v), dv: s.dv[v]}
	var op token.Token
	switch tok {
	case token.ADD_ASSIGN:
		op = token.ADD
	case token.SUB_ASSIGN:
		op = token.SUB
	case token.MUL_ASSIGN:
		op = token.MUL
	case token.QUO_ASSIGN:
		op = token.QUO
	case token.REM_ASSIGN:
		op = token.REM
	case token.AND_ASSIGN:
		op = token.AND
	case token.OR_ASSIGN:
		op = token.OR
	case token.XOR_ASSIGN:
		op = token.XOR
	case token.SHL_ASSIGN:
		op = token.SHL
	case token.SHR_ASSIGN:
		op = token.SHR
	case token.AND_NOT_ASSIGN:
		op = token.AND_NOT
	default:
		return val{iv: Top()}
	}
	return val{
		iv: meetType(binOp(op, old.iv, rhs.iv), v.Type()),
		dv: unionD(old.dv, rhs.dv),
	}
}

// assignVar binds abstract value t to variable v. rhs is the source
// expression when the assignment is a plain 1:1 binding (nil for
// compound assignments and multi-value unpacking), used for the
// relational bindings a bare value cannot carry.
func (e *Engine) assignVar(v *types.Var, t val, rhs ast.Expr, pos token.Pos, s *VState) {
	if isIntegerKind(v.Type()) {
		var w, lenOf *types.Var
		if rhs != nil {
			w = e.wrapFreeVar(rhs, s)
			lenOf = e.lenOperand(rhs, s)
		}
		s.killInt(v)
		s.setIv(v, meetType(t.iv, v.Type()))
		if t.dv.mask != 0 {
			s.dv[v] = t.dv.step(pos, "flows into "+v.Name())
		}
		if w != nil && w != v {
			// Wrap-free copy: v inherits w's ordering facts, v ≤ w ≤ v.
			s.copyRels(v, w)
		}
		if lenOf != nil {
			// v := len(sl): v is a length symbol of sl and v ≤ len(sl).
			s.addLenSym(lenOf, v)
			s.addRel(s.leLen, v, lenOf)
		}
		return
	}
	if isLenTracked(v.Type()) {
		e.assignSlice(v, rhs, s)
	}
}

// assignSlice tracks length facts through slice assignments: make
// binds the size symbol, self-append grows, plain copies share length.
func (e *Engine) assignSlice(v *types.Var, rhs ast.Expr, s *VState) {
	if rhs == nil {
		s.killSlice(v)
		return
	}
	rhs = unparen(rhs)
	if call, ok := rhs.(*ast.CallExpr); ok {
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := e.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "append":
					if len(call.Args) > 0 && e.plainVar(call.Args[0]) == v {
						s.growLen(v) // len only grew; < len facts survive
						return
					}
					s.killSlice(v)
					if len(call.Args) > 0 {
						if src := e.plainVar(call.Args[0]); src != nil && src != v {
							s.setLenIv(v, Interval{s.getLen(src).Lo, PosInf})
						}
					}
					return
				case "make":
					if len(call.Args) >= 2 {
						sizeIv := e.evalIvQuiet(call.Args[1], s)
						sizeVar := e.wrapFreeVar(call.Args[1], s)
						s.killSlice(v)
						s.setLenIv(v, sizeIv.Meet(Interval{0, PosInf}))
						if sizeVar != nil {
							s.addLenSym(v, sizeVar)
						}
						return
					}
				}
			}
		}
	}
	if w := e.plainVar(rhs); w != nil && w != v && isLenTracked(w.Type()) {
		li := s.getLen(w)
		s.killSlice(v)
		s.setLenIv(v, li)
		s.shareLen(v, w, rhs)
		return
	}
	s.killSlice(v)
}

// bindSameLen links the left-hand slices of a multi-assign from a
// summarized call whose results have SameLenAs entries (twin makes in
// the callee), minting one token per equality class keyed by the call
// node so the binding is stable across solver iterations.
func (e *Engine) bindSameLen(x *ast.AssignStmt, s *VState) {
	call, ok := unparen(x.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := e.calleeOf(call)
	if fn == nil {
		return
	}
	rr := e.lookup(fn)
	if rr == nil || len(rr.Results) == 0 {
		return
	}
	class := make([]int, len(rr.Results))
	for i := range class {
		class[i] = i
	}
	for j, r := range rr.Results {
		for _, i := range r.SameLenAs {
			if i < 0 || i >= j {
				continue
			}
			ci, cj := class[i], class[j]
			if ci > cj {
				ci, cj = cj, ci
			}
			for k := range class {
				if class[k] == cj {
					class[k] = ci
				}
			}
		}
	}
	members := map[int][]int{}
	for j, c := range class {
		members[c] = append(members[c], j)
	}
	for rep, ms := range members {
		if len(ms) < 2 {
			continue
		}
		tok := lenTokenKey{node: call, idx: rep}
		for _, j := range ms {
			if j >= len(x.Lhs) {
				continue
			}
			if v := e.plainVar(x.Lhs[j]); v != nil && isLenTracked(v.Type()) {
				s.addLenSym(v, tok)
			}
		}
	}
}

func (e *Engine) valueSpec(vs *ast.ValueSpec, s *VState) {
	var vals []val
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		vals = e.evalMulti(vs.Values[0], len(vs.Names), s)
	} else {
		for _, rhs := range vs.Values {
			vals = append(vals, e.eval(rhs, s))
		}
	}
	for i, name := range vs.Names {
		if name.Name == "_" {
			continue
		}
		v := e.varOf(name)
		if v == nil {
			continue
		}
		if len(vs.Values) == 0 {
			// Zero value: 0 for integers, nil (length 0) for slices.
			if isIntegerKind(v.Type()) {
				s.killInt(v)
				s.setIv(v, meetType(Const(0), v.Type()))
			} else if isLenTracked(v.Type()) {
				s.killSlice(v)
				s.setLenIv(v, Const(0))
			}
			continue
		}
		if i >= len(vals) {
			continue
		}
		var rhs ast.Expr
		if len(vs.Values) == len(vs.Names) {
			rhs = vs.Values[i]
		}
		e.assignVar(v, vals[i], rhs, vs.Pos(), s)
	}
}

func (e *Engine) returnStmt(x *ast.ReturnStmt, s *VState) {
	if len(x.Results) == 0 {
		// Naked return: named results carry the values.
		for i, rv := range e.results {
			if i >= len(e.resultIvs) {
				break
			}
			v := val{iv: Top()}
			if rv != nil && isIntegerKind(rv.Type()) {
				v = val{iv: s.get(rv), dv: s.dv[rv]}
			}
			e.joinResult(i, v, rv, s)
		}
		e.recordSameLenVars(e.results, s)
		return
	}
	if len(x.Results) == 1 && len(e.resultIvs) > 1 {
		vals := e.evalMulti(x.Results[0], len(e.resultIvs), s)
		for i := range vals {
			e.joinResult(i, vals[i], nil, s)
		}
		e.recordSameLenExprs(nil, s) // no per-result expressions to compare
		return
	}
	var vals []val
	for _, r := range x.Results {
		vals = append(vals, e.eval(r, s))
	}
	for i := range vals {
		if i >= len(e.resultIvs) {
			break
		}
		e.joinResult(i, vals[i], e.wrapFreeVar(x.Results[i], s), s)
	}
	e.recordSameLenExprs(x.Results, s)
}

// joinResult accumulates one return site's contribution to result i.
// rv, when non-nil, is a wrap-free variable holding the returned value
// (for min-of-params proofs against pristine parameters).
func (e *Engine) joinResult(i int, v val, rv *types.Var, s *VState) {
	e.resultIvs[i] = e.resultIvs[i].Join(v.iv)
	e.resultDv[i] = unionD(e.resultDv[i], v.dv)
	minset := map[int]bool{}
	if rv != nil {
		for p, pv := range e.params {
			if pv == nil || !s.pristine[pv] || !isIntegerKind(pv.Type()) {
				continue
			}
			if pv == rv || s.le[rv][pv] || s.lt[rv][pv] {
				minset[p] = true
			}
		}
	}
	if e.resultMin[i] == nil {
		e.resultMin[i] = minset
	} else {
		for p := range e.resultMin[i] {
			if !minset[p] {
				delete(e.resultMin[i], p)
			}
		}
	}
}

// recordSameLenExprs intersects, across return sites, which earlier
// results each slice result provably shares a length with (both nil,
// or variables in one length class).
func (e *Engine) recordSameLenExprs(exprs []ast.Expr, s *VState) {
	for j := range e.resultIvs {
		set := map[int]bool{}
		if j < len(exprs) {
			for i := 0; i < j && i < len(exprs); i++ {
				if e.sameLenExprs(exprs[i], exprs[j], s) {
					set[i] = true
				}
			}
		}
		if e.resultLen[j] == nil {
			e.resultLen[j] = set
		} else {
			for i := range e.resultLen[j] {
				if !set[i] {
					delete(e.resultLen[j], i)
				}
			}
		}
	}
}

func (e *Engine) recordSameLenVars(rvs []*types.Var, s *VState) {
	for j := range e.resultIvs {
		set := map[int]bool{}
		if j < len(rvs) && rvs[j] != nil && isLenTracked(rvs[j].Type()) {
			for i := 0; i < j && i < len(rvs); i++ {
				if rvs[i] != nil && isLenTracked(rvs[i].Type()) && s.sameLen(rvs[i], rvs[j]) {
					set[i] = true
				}
			}
		}
		if e.resultLen[j] == nil {
			e.resultLen[j] = set
		} else {
			for i := range e.resultLen[j] {
				if !set[i] {
					delete(e.resultLen[j], i)
				}
			}
		}
	}
}

func (e *Engine) sameLenExprs(a, b ast.Expr, s *VState) bool {
	ta, tb := e.Info.TypeOf(a), e.Info.TypeOf(b)
	if ta == nil || tb == nil {
		return false
	}
	if _, ok := ta.Underlying().(*types.Slice); !ok {
		if tva, ok2 := e.Info.Types[a]; !ok2 || !tva.IsNil() {
			return false
		}
	}
	if _, ok := tb.Underlying().(*types.Slice); !ok {
		if tvb, ok2 := e.Info.Types[b]; !ok2 || !tvb.IsNil() {
			return false
		}
	}
	if e.isNilExpr(a) && e.isNilExpr(b) {
		return true
	}
	va, vb := e.plainVar(a), e.plainVar(b)
	return va != nil && vb != nil && s.sameLen(va, vb)
}

func (e *Engine) isNilExpr(x ast.Expr) bool {
	tv, ok := e.Info.Types[x]
	return ok && tv.IsNil()
}

// makeRange assembles the function's serializable summary from the
// accumulated return facts and the unproven sites.
func (e *Engine) makeRange(decl *ast.FuncDecl) *FuncRange {
	fr := &FuncRange{Params: len(e.params)}
	if len(e.resultIvs) > 0 {
		fr.Results = make([]ResultRange, len(e.resultIvs))
		for i, iv := range e.resultIvs {
			if iv.IsEmpty() {
				iv = Top() // no return reached (panic-only path)
			}
			rr := ResultRange{Lo: iv.Lo, Hi: iv.Hi}
			for p := range e.resultMin[i] {
				rr.MinOfParams = append(rr.MinOfParams, p)
			}
			sort.Ints(rr.MinOfParams)
			rr.Params = e.resultDv[i].ParamBits()
			rr.Wire = e.resultDv[i].FromWire()
			for p := range e.resultLen[i] {
				rr.SameLenAs = append(rr.SameLenAs, p)
			}
			sort.Ints(rr.SameLenAs)
			fr.Results[i] = rr
		}
	}
	// Unproven sites whose index derives from a parameter surface as
	// IndexParams for callers to prove or report.
	seen := map[string]bool{}
	for _, site := range e.fr.Sites {
		if site.Proven {
			continue
		}
		for _, p := range site.Deriv.ParamBits() {
			ip := IndexParam{
				Param:     p,
				BaseParam: -1,
				Le:        site.AllowEq,
				What:      site.Kind,
				Pos:       analysis.PositionOf(e.Fset, site.Pos),
				Via:       site.Via,
			}
			if site.idxParam == p {
				ip.BaseParam = site.baseParam
			}
			key := fmt.Sprintf("%d|%d|%v|%s|%v", ip.Param, ip.BaseParam, ip.Le, ip.What, ip.Pos)
			if seen[key] {
				continue
			}
			seen[key] = true
			fr.IndexParams = append(fr.IndexParams, ip)
		}
	}
	return fr
}

// --- expression evaluation ------------------------------------------------

// eval computes an expression's abstract value, recording proved
// intervals during the recording sweep.
func (e *Engine) eval(x ast.Expr, s *VState) val {
	v := e.eval1(x, s)
	if e.record {
		if t := e.Info.TypeOf(x); t != nil && isIntegerKind(t) && !v.iv.IsTop() {
			e.fr.ExprIv[x] = v.iv
		}
	}
	return v
}

func (e *Engine) eval1(x ast.Expr, s *VState) val {
	if tv, ok := e.Info.Types[x]; ok {
		if iv, isConst := constIv(tv); isConst {
			return val{iv: iv}
		}
	}
	switch x := x.(type) {
	case *ast.Ident:
		v := e.varOf(x)
		if v != nil && isIntegerKind(v.Type()) {
			return val{iv: s.get(v), dv: s.dv[v]}
		}
		return val{iv: Top()}
	case *ast.ParenExpr:
		return e.eval1(x.X, s)
	case *ast.UnaryExpr:
		in := e.eval(x.X, s)
		if x.Op == token.SUB {
			iv := in.iv.Neg()
			if t := e.Info.TypeOf(x); t != nil && isIntegerKind(t) {
				iv = meetType(iv, t)
			} else {
				iv = Top()
			}
			return val{iv: iv, dv: in.dv}
		}
		if x.Op == token.ADD {
			return in
		}
		return val{iv: Top(), dv: in.dv}
	case *ast.BinaryExpr:
		if x.Op == token.LAND || x.Op == token.LOR {
			// Short-circuit: the right operand only runs under the
			// left's refinement.
			e.eval(x.X, s)
			rs := e.refine(s.clone(), x.X, x.Op == token.LAND)
			e.eval(x.Y, rs)
			return val{iv: Top()}
		}
		a := e.eval(x.X, s)
		b := e.eval(x.Y, s)
		if isComparison(x.Op) {
			return val{iv: Top(), dv: unionD(a.dv, b.dv)}
		}
		iv := binOp(x.Op, a.iv, b.iv)
		if t := e.Info.TypeOf(x); t != nil && isIntegerKind(t) {
			iv = meetType(iv, t)
		} else {
			iv = Top()
		}
		return val{iv: iv, dv: unionD(a.dv, b.dv)}
	case *ast.CallExpr:
		vs := e.evalCall(x, s)
		if len(vs) == 1 {
			return vs[0]
		}
		return val{iv: Top()}
	case *ast.IndexExpr:
		if tv, ok := e.Info.Types[x.X]; ok && tv.IsType() {
			return val{iv: Top()} // generic instantiation, not indexing
		}
		e.eval(x.X, s)
		idx := e.eval(x.Index, s)
		if bt := e.Info.TypeOf(x.X); bt != nil && indexableSeq(bt) {
			e.addLocalSite("index", x.Index, x.X, idx, false, s)
		}
		if t := e.Info.TypeOf(x); t != nil && isIntegerKind(t) {
			return val{iv: MachineRange(t)}
		}
		return val{iv: Top()}
	case *ast.IndexListExpr:
		return val{iv: Top()}
	case *ast.SliceExpr:
		e.eval(x.X, s)
		bt := e.Info.TypeOf(x.X)
		for _, b := range []ast.Expr{x.Low, x.High, x.Max} {
			if b == nil {
				continue
			}
			bv := e.eval(b, s)
			if bt != nil && indexableSeq(bt) {
				e.addLocalSite("slice bound", b, x.X, bv, true, s)
			}
		}
		return val{iv: Top()}
	case *ast.SelectorExpr:
		e.eval1(x.X, s)
		return val{iv: Top()}
	case *ast.StarExpr:
		e.eval(x.X, s)
		return val{iv: Top()}
	case *ast.TypeAssertExpr:
		e.eval(x.X, s)
		return val{iv: Top()}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			e.eval(el, s)
		}
		return val{iv: Top()}
	case *ast.KeyValueExpr:
		e.eval(x.Value, s)
		return val{iv: Top()}
	}
	return val{iv: Top()}
}

// evalIvQuiet evaluates an expression's interval without recording
// sites or expression intervals (for re-evaluation inside refinements
// and proofs).
func (e *Engine) evalIvQuiet(x ast.Expr, s *VState) Interval {
	saved := e.record
	e.record = false
	v := e.eval1(x, s)
	e.record = saved
	return v.iv
}

// addLocalSite registers one index/slice-bound occurrence, attempting
// the bounds proof against the current state.
func (e *Engine) addLocalSite(kind string, expr, base ast.Expr, v val, allowEq bool, s *VState) {
	if !e.record {
		return
	}
	site := &Site{
		Kind:      kind,
		Expr:      expr,
		Base:      base,
		Pos:       expr.Pos(),
		AllowEq:   allowEq,
		Deriv:     v.dv,
		baseParam: -1,
		idxParam:  -1,
	}
	site.Proven = e.provenBound(expr, base, v.iv, allowEq, s)
	if bv := e.plainVar(base); bv != nil {
		site.baseParam = e.pristineParam(bv, s)
	}
	if w := e.wrapFreeVar(expr, s); w != nil {
		site.idxParam = e.pristineParam(w, s)
	}
	e.fr.Sites = append(e.fr.Sites, site)
	e.fr.siteByExpr[expr] = site
}

// pristineParam returns v's parameter index when v is a parameter the
// function has not reassigned, else -1.
func (e *Engine) pristineParam(v *types.Var, s *VState) int {
	if v == nil || !s.pristine[v] {
		return -1
	}
	if i, ok := e.pristineIn[v]; ok {
		return i
	}
	return -1
}

// provenBound discharges idx ∈ [0, len(base)) (or [0, len] for slice
// bounds): numerically against the length interval, relationally via
// the <len/≤len facts (directly or through a same-length slice), or
// through a length-symbol variable the index is ordered against.
func (e *Engine) provenBound(expr, base ast.Expr, idxIv Interval, allowEq bool, s *VState) bool {
	if idxIv.IsEmpty() {
		return true // unreachable
	}
	if !idxIv.NonNegative() {
		return false
	}
	ltOK := func(hi, lo int64) bool {
		if hi == PosInf || lo == NegInf {
			return false
		}
		if allowEq {
			return hi <= lo
		}
		return hi < lo
	}
	if n, ok := arrayLen(e.Info.TypeOf(base)); ok {
		return ltOK(idxIv.Hi, n)
	}
	bv := e.plainVar(base)
	if bv == nil {
		return false
	}
	if ltOK(idxIv.Hi, s.getLen(bv).Lo) {
		return true
	}
	iv0 := e.wrapFreeVar(expr, s)
	if iv0 == nil {
		return false
	}
	if s.ltLen[iv0][bv] || (allowEq && s.leLen[iv0][bv]) {
		return true
	}
	for other := range s.ltLen[iv0] {
		if s.sameLen(other, bv) {
			return true
		}
	}
	if allowEq {
		for other := range s.leLen[iv0] {
			if s.sameLen(other, bv) {
				return true
			}
		}
	}
	for sym := range s.lenSyms[bv] {
		w, ok := sym.(*types.Var)
		if !ok {
			continue
		}
		if w == iv0 {
			if allowEq {
				return true // idx == len(base) exactly
			}
			continue
		}
		if s.lt[iv0][w] || (allowEq && s.le[iv0][w]) {
			return true
		}
		if ltOK(idxIv.Hi, s.get(w).Lo) {
			return true
		}
	}
	return false
}

// --- calls ----------------------------------------------------------------

func (e *Engine) calleeOf(call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := e.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := e.Info.Selections[f]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := e.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// evalCall evaluates a call (or conversion, or builtin), returning one
// val per result. Summarized callees contribute result intervals,
// min-of-params clamping against the actual arguments, derivations,
// and lifted unproven index sites.
func (e *Engine) evalCall(call *ast.CallExpr, s *VState) []val {
	if tv, ok := e.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		in := e.eval(call.Args[0], s)
		from := e.Info.TypeOf(call.Args[0])
		to := tv.Type
		if from != nil && isIntegerKind(from) && isIntegerKind(to) {
			iv := convertIv(in.iv, from, to)
			if e.lenBoundedConv(call.Args[0], from, to, s) {
				iv = in.iv // value-preserving: operand sits under a length
			}
			return []val{{
				iv: iv,
				dv: in.dv.step(call.Pos(), "converted to "+types.TypeString(to, nil)),
			}}
		}
		return []val{{iv: Top(), dv: in.dv}}
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := e.Info.Uses[id].(*types.Builtin); ok {
			return e.evalBuiltin(b, call, s)
		}
	}

	var argVals []val
	var argExprs []ast.Expr
	var fn *types.Func
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = e.Info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := e.Info.Selections[f]; ok {
			fn, _ = sel.Obj().(*types.Func)
			// Method call: the receiver occupies parameter slot 0 in
			// the callee's summary.
			e.eval1(f.X, s)
			argVals = append(argVals, val{iv: Top()})
			argExprs = append(argExprs, f.X)
		} else {
			fn, _ = e.Info.Uses[f.Sel].(*types.Func)
		}
	default:
		e.eval(call.Fun, s)
	}
	for _, a := range call.Args {
		argVals = append(argVals, e.eval(a, s))
		argExprs = append(argExprs, a)
	}

	var sig *types.Signature
	if fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	}
	nres := 1
	if sig != nil {
		nres = sig.Results().Len()
	} else if t := e.Info.TypeOf(call); t != nil {
		if tu, ok := t.(*types.Tuple); ok {
			nres = tu.Len()
		}
	}
	if nres == 0 {
		nres = 1 // keep single-value shape for expression contexts
	}
	out := make([]val, nres)
	for i := range out {
		out[i] = val{iv: Top()}
	}
	if fn == nil {
		return out
	}
	if ridx, ok := sourceFuncs[fn.FullName()]; ok && ridx < nres {
		iv := Top()
		if sig != nil && ridx < sig.Results().Len() {
			iv = MachineRange(sig.Results().At(ridx).Type())
		}
		out[ridx] = val{
			iv: iv,
			dv: Deriv{
				mask:  1 << sourceBit,
				chain: &Step{Pos: call.Pos(), What: "read from wire by " + fn.Name()},
			},
		}
		return out
	}
	rr := e.lookup(fn)
	if rr == nil {
		return out
	}
	for i := range out {
		if i >= len(rr.Results) {
			break
		}
		r := rr.Results[i]
		iv := Interval{r.Lo, r.Hi}
		var dv Deriv
		for _, p := range r.MinOfParams {
			if p < len(argVals) {
				if ah := argVals[p].iv.Hi; ah != PosInf && (iv.Hi == PosInf || ah < iv.Hi) {
					iv.Hi = ah
					if iv.Lo > iv.Hi {
						iv.Lo = iv.Hi
					}
				}
			}
		}
		for _, p := range r.Params {
			if p < len(argVals) {
				dv = unionD(dv, argVals[p].dv)
			}
		}
		if r.Wire {
			dv.mask |= 1 << sourceBit
		}
		dv = dv.step(call.Pos(), "returned by "+fn.Name())
		if sig != nil && i < sig.Results().Len() {
			if rt := sig.Results().At(i).Type(); isIntegerKind(rt) {
				iv = meetType(iv, rt)
			} else {
				iv = Top()
			}
		}
		out[i] = val{iv: iv, dv: dv}
	}
	if e.record {
		e.liftSites(call, fn, rr, argVals, argExprs, s)
	}
	return out
}

// liftSites imports a callee's unproven param-indexed sites at this
// call: proved here when the argument is ordered against the matching
// slice argument, otherwise re-exposed with the argument's derivation.
func (e *Engine) liftSites(call *ast.CallExpr, fn *types.Func, rr *FuncRange, argVals []val, argExprs []ast.Expr, s *VState) {
	for _, ip := range rr.IndexParams {
		p := ip.Param
		if p < 0 || p >= len(argVals) {
			continue
		}
		av := argVals[p]
		var ax ast.Expr
		if p < len(argExprs) {
			ax = argExprs[p]
		}
		site := &Site{
			Kind:      ip.What,
			Expr:      ax,
			Pos:       call.Pos(),
			AllowEq:   ip.Le,
			Deriv:     av.dv,
			Callee:    fn,
			CalleePos: ip.Pos,
			Via:       fn.Name(),
			baseParam: -1,
			idxParam:  -1,
		}
		if ax != nil {
			site.Pos = ax.Pos()
		}
		if ip.Via != "" {
			site.Via = fn.Name() + " → " + ip.Via
		}
		if ip.BaseParam >= 0 && ip.BaseParam < len(argExprs) && ax != nil {
			bx := argExprs[ip.BaseParam]
			site.Base = bx
			site.Proven = e.provenBound(ax, bx, av.iv, ip.Le, s)
			if bw := e.plainVar(bx); bw != nil {
				site.baseParam = e.pristineParam(bw, s)
			}
		}
		if ax != nil {
			if w := e.wrapFreeVar(ax, s); w != nil {
				site.idxParam = e.pristineParam(w, s)
			}
		}
		e.fr.Sites = append(e.fr.Sites, site)
		if ax != nil {
			if _, taken := e.fr.siteByExpr[ax]; !taken {
				e.fr.siteByExpr[ax] = site
			}
		}
	}
}

func (e *Engine) evalBuiltin(b *types.Builtin, call *ast.CallExpr, s *VState) []val {
	switch b.Name() {
	case "len", "cap":
		if len(call.Args) == 1 {
			e.eval(call.Args[0], s)
			return []val{{iv: e.lenIvOf(call.Args[0], b.Name() == "cap", s)}}
		}
	case "min", "max":
		var out val
		for i, a := range call.Args {
			v := e.eval(a, s)
			if i == 0 {
				out = v
				continue
			}
			if b.Name() == "min" {
				out.iv = out.iv.MinI(v.iv)
			} else {
				out.iv = out.iv.MaxI(v.iv)
			}
			out.dv = unionD(out.dv, v.dv)
		}
		if len(call.Args) > 0 {
			return []val{out}
		}
	}
	for _, a := range call.Args {
		e.eval(a, s)
	}
	return []val{{iv: Top()}}
}

// lenIvOf is the interval of len(arg) (or cap, which only adds slack
// above).
func (e *Engine) lenIvOf(arg ast.Expr, isCap bool, s *VState) Interval {
	t := e.Info.TypeOf(arg)
	if t == nil {
		return Interval{0, PosInf}
	}
	if n, ok := arrayLen(t); ok {
		return Const(n)
	}
	if v := e.plainVar(arg); v != nil && isLenTracked(v.Type()) {
		li := s.getLen(v)
		if isCap {
			return Interval{li.Lo, PosInf}
		}
		return li
	}
	return Interval{0, PosInf}
}

func (e *Engine) evalMulti(x ast.Expr, n int, s *VState) []val {
	if call, ok := unparen(x).(*ast.CallExpr); ok {
		vs := e.evalCall(call, s)
		for len(vs) < n {
			vs = append(vs, val{iv: Top()})
		}
		return vs[:n]
	}
	e.eval(x, s)
	out := make([]val, n)
	for i := range out {
		out[i] = val{iv: Top()}
	}
	return out
}

// --- branch refinement ----------------------------------------------------

// refine sharpens a state clone under cond having the given truth
// value. It may return the state unchanged (but never nil).
func (e *Engine) refine(s *VState, cond ast.Expr, polarity bool) *VState {
	cond = unparen(cond)
	switch x := cond.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			return e.refine(s, x.X, !polarity)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if polarity {
				s = e.refine(s, x.X, true)
				return e.refine(s, x.Y, true)
			}
			return s
		case token.LOR:
			if !polarity {
				s = e.refine(s, x.X, false)
				return e.refine(s, x.Y, false)
			}
			return s
		}
		if isComparison(x.Op) {
			op := x.Op
			if !polarity {
				op = negateCmp(op)
			}
			e.refineCmp(s, op, x)
		}
	}
	return s
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return token.ILLEGAL
}

func (e *Engine) refineCmp(s *VState, op token.Token, x *ast.BinaryExpr) {
	switch op {
	case token.LSS:
		e.refineLess(s, x.X, x.Y, true)
	case token.LEQ:
		e.refineLess(s, x.X, x.Y, false)
	case token.GTR:
		e.refineLess(s, x.Y, x.X, true)
	case token.GEQ:
		e.refineLess(s, x.Y, x.X, false)
	case token.EQL:
		e.refineEq(s, x)
	case token.NEQ:
		e.refineNeq(s, x.X, x.Y)
	}
}

// refineLess installs a < b (strict) or a ≤ b: numeric tightening on
// both sides, ordering relations between wrap-free variables, <len
// facts when one side is len(slice), and length-interval tightening.
func (e *Engine) refineLess(s *VState, a, b ast.Expr, strict bool) {
	av := e.evalIvQuiet(a, s)
	bv := e.evalIvQuiet(b, s)
	if av.IsEmpty() || bv.IsEmpty() {
		return
	}
	va := e.wrapFreeVar(a, s)
	vb := e.wrapFreeVar(b, s)
	hi := bv.Hi
	if strict && hi != PosInf && hi != NegInf {
		hi--
	}
	lo := av.Lo
	if strict && lo != NegInf && lo != PosInf {
		lo++
	}
	if va != nil {
		if ni := s.get(va).Meet(Interval{NegInf, hi}); !ni.IsEmpty() {
			s.setIv(va, ni)
		}
	}
	if vb != nil {
		if ni := s.get(vb).Meet(Interval{lo, PosInf}); !ni.IsEmpty() {
			s.setIv(vb, ni)
		}
	}
	if va != nil && vb != nil && va != vb {
		if strict {
			s.addRel(s.lt, va, vb)
		} else {
			s.addRel(s.le, va, vb)
		}
	}
	if va != nil {
		if ls := e.lenOperand(b, s); ls != nil {
			if strict {
				s.addRel(s.ltLen, va, ls)
			} else {
				s.addRel(s.leLen, va, ls)
			}
		}
	}
	if ls := e.lenOperand(a, s); ls != nil {
		if ni := s.getLen(ls).Meet(Interval{0, hi}); !ni.IsEmpty() {
			s.setLenIv(ls, ni)
		}
	}
	if ls := e.lenOperand(b, s); ls != nil && lo > 0 {
		if ni := s.getLen(ls).Meet(Interval{lo, PosInf}); !ni.IsEmpty() {
			s.setLenIv(ls, ni)
		}
	}
}

func (e *Engine) refineEq(s *VState, x *ast.BinaryExpr) {
	a, b := x.X, x.Y
	av := e.evalIvQuiet(a, s)
	bv := e.evalIvQuiet(b, s)
	m := av.Meet(bv)
	va := e.wrapFreeVar(a, s)
	vb := e.wrapFreeVar(b, s)
	if !m.IsEmpty() {
		if va != nil {
			s.setIv(va, meetType(m, va.Type()))
		}
		if vb != nil {
			s.setIv(vb, meetType(m, vb.Type()))
		}
	}
	if va != nil && vb != nil && va != vb {
		s.addRel(s.le, va, vb)
		s.addRel(s.le, vb, va)
	}
	la := e.lenOperand(a, s)
	lb := e.lenOperand(b, s)
	if la != nil {
		if ni := s.getLen(la).Meet(bv); !ni.IsEmpty() {
			s.setLenIv(la, ni)
		}
		if vb != nil {
			s.addLenSym(la, vb)
			s.addRel(s.leLen, vb, la)
		}
	}
	if lb != nil {
		if ni := s.getLen(lb).Meet(av); !ni.IsEmpty() {
			s.setLenIv(lb, ni)
		}
		if va != nil {
			s.addLenSym(lb, va)
			s.addRel(s.leLen, va, lb)
		}
	}
	if la != nil && lb != nil && la != lb {
		s.mergeLen(la, lb, lenTokenKey{node: x})
	}
}

// refineNeq nudges a closed endpoint off an excluded constant:
// n ≥ 0 ∧ n ≠ 0 ⇒ n ≥ 1.
func (e *Engine) refineNeq(s *VState, a, b ast.Expr) {
	e.neqSide(s, a, b)
	e.neqSide(s, b, a)
}

func (e *Engine) neqSide(s *VState, x, c ast.Expr) {
	cv := e.evalIvQuiet(c, s)
	if cv.IsEmpty() || cv.Lo != cv.Hi || cv.Lo == NegInf || cv.Lo == PosInf {
		return
	}
	v := e.wrapFreeVar(x, s)
	if v == nil {
		return
	}
	iv := s.get(v)
	if iv.IsEmpty() || iv.Lo == iv.Hi {
		return
	}
	if iv.Lo == cv.Lo {
		s.setIv(v, Interval{iv.Lo + 1, iv.Hi})
	} else if iv.Hi == cv.Lo {
		s.setIv(v, Interval{iv.Lo, iv.Hi - 1})
	}
}

// rangeBind is the body-edge binding for a range statement: the key
// variable gets its per-iteration facts (0 ≤ key < len(X), or < n for
// range-over-int).
func (e *Engine) rangeBind(rs *ast.RangeStmt, out *VState) *VState {
	s := out.clone()
	var keyVar *types.Var
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyVar = e.varOf(id)
	}
	if keyVar != nil {
		e.killByType(keyVar, s)
	}
	if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
		if v := e.varOf(id); v != nil {
			e.killByType(v, s)
		}
	}
	if keyVar == nil || !isIntegerKind(keyVar.Type()) {
		return s
	}
	t := e.Info.TypeOf(rs.X)
	if t == nil {
		return s
	}
	boundKey := func(hi int64) {
		s.setIv(keyVar, meetType(Interval{0, hi}, keyVar.Type()))
	}
	if n, ok := arrayLen(t); ok {
		boundKey(n - 1)
		return s
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		e.bindSeqKey(keyVar, rs.X, s)
	case *types.Basic:
		switch {
		case u.Info()&types.IsString != 0:
			e.bindSeqKey(keyVar, rs.X, s)
		case u.Info()&types.IsInteger != 0:
			nIv := e.evalIvQuiet(rs.X, s)
			hi := nIv.Hi
			if hi != PosInf && hi != NegInf {
				hi--
			}
			boundKey(hi)
			if w := e.wrapFreeVar(rs.X, s); w != nil && w != keyVar {
				s.addRel(s.lt, keyVar, w)
			}
		}
	}
	return s
}

// bindSeqKey installs 0 ≤ key < len(seq) for a slice/string range.
func (e *Engine) bindSeqKey(keyVar *types.Var, seq ast.Expr, s *VState) {
	var hi int64 = PosInf
	if bv := e.plainVar(seq); bv != nil {
		if l := s.getLen(bv); l.Hi != PosInf {
			hi = l.Hi - 1
		}
		s.addRel(s.ltLen, keyVar, bv)
	}
	s.setIv(keyVar, meetType(Interval{0, hi}, keyVar.Type()))
}

// --- helpers --------------------------------------------------------------

func (e *Engine) lookup(fn *types.Func) *FuncRange {
	if e.Lookup == nil {
		return nil
	}
	return e.Lookup(fn)
}

func (e *Engine) varOf(id *ast.Ident) *types.Var {
	if obj, ok := e.Info.Defs[id]; ok {
		v, _ := obj.(*types.Var)
		return v
	}
	v, _ := e.Info.Uses[id].(*types.Var)
	return v
}

func unparen(x ast.Expr) ast.Expr {
	for {
		p, ok := x.(*ast.ParenExpr)
		if !ok {
			return x
		}
		x = p.X
	}
}

// plainVar is the variable named by a (possibly parenthesized) ident.
func (e *Engine) plainVar(x ast.Expr) *types.Var {
	if id, ok := unparen(x).(*ast.Ident); ok {
		return e.varOf(id)
	}
	return nil
}

// unwrapConv strips parens and integer conversions proved
// value-preserving for the operand's current interval — the wrap-free
// check that lets `a >= uint64(ncols)` bound a by ncols only when
// uint64(ncols) cannot wrap.
func (e *Engine) unwrapConv(x ast.Expr, s *VState) ast.Expr {
	for {
		x = unparen(x)
		call, ok := x.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return x
		}
		tv, ok := e.Info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return x
		}
		from := e.Info.TypeOf(call.Args[0])
		if from == nil || !isIntegerKind(from) || !isIntegerKind(tv.Type) {
			return x
		}
		if !FitsConversion(e.evalIvQuiet(call.Args[0], s), from, tv.Type) &&
			!e.lenBoundedConv(call.Args[0], from, tv.Type, s) {
			return x
		}
		x = call.Args[0]
	}
}

// lenBoundedConv reports whether a conversion the interval alone cannot
// prove wrap-free is still value-preserving because the operand is
// relationally below (or at) some tracked length: a Go length is at
// most MaxInt, so an unsigned value under one fits any 64-bit target —
// the `dict[int(v)]` after `if v >= uint64(len(dict))` idiom.
func (e *Engine) lenBoundedConv(arg ast.Expr, from, to types.Type, s *VState) bool {
	b, ok := from.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsUnsigned == 0 {
		return false
	}
	if MachineRange(to).Hi != PosInf {
		return false
	}
	v := e.plainVar(unparen(arg))
	if v == nil {
		return false
	}
	return len(s.ltLen[v]) > 0 || len(s.leLen[v]) > 0
}

// wrapFreeVar is the integer variable an expression reads through
// wrap-free conversions only, or nil.
func (e *Engine) wrapFreeVar(x ast.Expr, s *VState) *types.Var {
	if x == nil {
		return nil
	}
	if v := e.plainVar(e.unwrapConv(x, s)); v != nil && isIntegerKind(v.Type()) {
		return v
	}
	return nil
}

// lenOperand matches len(sl) for a tracked slice/string variable,
// through wrap-free conversions (uint64(len(sl)) and the like).
func (e *Engine) lenOperand(x ast.Expr, s *VState) *types.Var {
	if x == nil {
		return nil
	}
	call, ok := e.unwrapConv(x, s).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := e.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "len" {
		return nil
	}
	if v := e.plainVar(call.Args[0]); v != nil && isLenTracked(v.Type()) {
		return v
	}
	return nil
}

func (e *Engine) killByType(v *types.Var, s *VState) {
	if isIntegerKind(v.Type()) {
		s.killInt(v)
	} else if isLenTracked(v.Type()) {
		s.killSlice(v)
	}
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func isIntegerKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isLenTracked limits length tracking to slices and strings — types
// whose length changes only through reassignment (maps and channels
// mutate in place).
func isLenTracked(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// indexableSeq reports a sequence type whose indexing is bounds-checked
// against len (maps excluded).
func indexableSeq(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

func arrayLen(t types.Type) (int64, bool) {
	if t == nil {
		return 0, false
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		return u.Len(), true
	case *types.Pointer:
		if a, ok := u.Elem().Underlying().(*types.Array); ok {
			return a.Len(), true
		}
	}
	return 0, false
}

// constIv extracts the interval of a typed or untyped integer
// constant; values beyond int64 saturate to a sentinel singleton.
func constIv(tv types.TypeAndValue) (Interval, bool) {
	if tv.Value == nil {
		return Interval{}, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return Interval{}, false
	}
	if n, exact := constant.Int64Val(v); exact && n != NegInf && n != PosInf {
		return Const(n), true
	}
	if constant.Sign(v) > 0 {
		return Interval{PosInf, PosInf}, true
	}
	return Interval{NegInf, NegInf}, true
}

// convertIv converts an interval across an integer conversion: value-
// preserving when it fits, else the full target range.
func convertIv(iv Interval, from, to types.Type) Interval {
	if FitsConversion(iv, from, to) {
		return meetType(iv, to)
	}
	return MachineRange(to)
}

// BinOp applies an arithmetic operator to operand intervals without
// the engine's machine-range meet — ExprIv stores post-meet intervals,
// so overflow clients (sizeoverflow's product rule) must recompute the
// raw result from the operands to see whether it actually fits.
func BinOp(op token.Token, a, b Interval) Interval { return binOp(op, a, b) }

func binOp(op token.Token, a, b Interval) Interval {
	switch op {
	case token.ADD:
		return a.Add(b)
	case token.SUB:
		return a.Sub(b)
	case token.MUL:
		return a.Mul(b)
	case token.QUO:
		return a.Div(b)
	case token.REM:
		return a.Rem(b)
	case token.AND:
		return a.And(b)
	case token.OR:
		return a.Or(b)
	case token.XOR:
		return a.Xor(b)
	case token.SHL:
		return a.Shl(b)
	case token.SHR:
		return a.Shr(b)
	case token.AND_NOT:
		return a.AndNot(b)
	}
	return Top()
}
