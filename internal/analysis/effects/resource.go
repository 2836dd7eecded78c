// The resource-lifecycle engine: per-function tracking of open
// io.Closer obligations over the control-flow graph. An obligation is
// created by a recognized opener (os.Open and friends, net dials and
// listens, or a summarized module opener) and must be discharged on
// every CFG exit path by one of:
//
//   - a Close call on the handle, direct or deferred (a defer only
//     covers exits reached after the defer statement executes — an
//     early return before the defer still leaks);
//   - returning the handle (ownership moves to the caller, and the
//     function's summary gains an OpenResult);
//   - storing it into a closer-owning struct, map, slice or global
//     (ownership moves to the container);
//   - passing it to a summarized callee that closes or stores it;
//   - capture by a function literal (the closure owns it now —
//     conservative, but escape tracking stops at closure boundaries).
//
// The walk is error-path aware: on the failure edge of the open's
// paired `err != nil` check no resource exists, so `return nil, err`
// there is not a leak.
package effects

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/cfg"
)

// LeakFinding is one open obligation with a CFG exit path that never
// discharges it; closeleak renders it as a diagnostic with the
// open→exit path attached.
type LeakFinding struct {
	OpenPos token.Pos
	What    string
	ExitPos token.Pos
	ExitMsg string
	Steps   []Step
}

// resourceInfo is everything the engine learns about one function.
type resourceInfo struct {
	Opens        []OpenResult
	ClosesParams []int
	StoresParams []int
	Leaks        []LeakFinding
}

// LeakFindings runs the resource engine over one declaration and
// returns its leaking open sites; closeleak's entry point.
func LeakFindings(fset *token.FileSet, info *types.Info, decl *ast.FuncDecl, lookup Lookup) []LeakFinding {
	return analyzeResources(fset, info, decl, lookup).Leaks
}

// openSite is one tracked obligation: the handle variable, the paired
// error variable of the opening assignment, and where it was opened.
type openSite struct {
	v      *types.Var
	errVar *types.Var
	stmt   *ast.AssignStmt
	pos    token.Pos
	what   string
}

// stdOpeners maps qualified stdlib functions to the result index that
// carries the open handle.
var stdOpeners = map[string]int{
	"os.Open":         0,
	"os.Create":       0,
	"os.OpenFile":     0,
	"os.CreateTemp":   0,
	"net.Dial":        0,
	"net.DialTimeout": 0,
	"net.DialTCP":     0,
	"net.DialUDP":     0,
	"net.Listen":      0,
	"net.ListenTCP":   0,
	"net.ListenUDP":   0,
}

func analyzeResources(fset *token.FileSet, info *types.Info, decl *ast.FuncDecl, lookup Lookup) *resourceInfo {
	e := &resourceEngine{fset: fset, info: info, lookup: lookup, decl: decl, params: callgraph.ParamVars(decl, info)}
	out := &resourceInfo{}
	out.ClosesParams = e.closesParams()
	out.StoresParams = e.storesParams()
	sites := e.openSites()
	g := cfg.New(decl.Body)
	for _, site := range sites {
		returned := e.track(g, site, out)
		if returned >= 0 {
			out.Opens = append(out.Opens, OpenResult{Result: returned, What: site.what, Pos: analysis.PositionOf(fset, site.pos)})
		}
	}
	out.Opens = append(out.Opens, e.wrapperOpens()...)
	out.Opens = append(out.Opens, e.directOpens()...)
	dedupOpens(out)
	return out
}

// directOpens detects opener forwarding: `return os.Open(path)` or
// `return archive.OpenSegmented(r)` hands the callee's open result
// straight to the caller without a local binding.
func (e *resourceEngine) directOpens() []OpenResult {
	var out []OpenResult
	ast.Inspect(e.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, res := range ret.Results {
			call, ok := ast.Unparen(res).(*ast.CallExpr)
			if !ok {
				continue
			}
			resIdx, what, ok := e.openerOf(call)
			if !ok {
				continue
			}
			// A single multi-result call keeps the callee's indices; a
			// call in result slot i contributes its handle at i.
			idx := i
			if len(ret.Results) == 1 {
				idx = resIdx
			}
			out = append(out, OpenResult{Result: idx, What: what, Pos: analysis.PositionOf(e.fset, call.Pos())})
		}
		return true
	})
	return out
}

type resourceEngine struct {
	fset   *token.FileSet
	info   *types.Info
	lookup Lookup
	decl   *ast.FuncDecl
	params []*types.Var
}

// ---- summary extraction ----

// closesParams lists parameters the function closes on some path:
// p.Close() anywhere (deferred and closure bodies included), or p
// passed to a summarized closer.
func (e *resourceEngine) closesParams() []int {
	var out []int
	for i, p := range e.params {
		if p == nil || !hasCloseMethod(p.Type()) {
			continue
		}
		if e.bodyCloses(e.decl.Body, p) {
			out = append(out, i)
		}
	}
	return out
}

func (e *resourceEngine) bodyCloses(body ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if e.isCloseOf(call, v) || e.calleeHandles(call, v, func(s *FuncEffects, i int) bool { return s.closesParam(i) }) {
			found = true
		}
		return !found
	})
	return found
}

// storesParams lists parameters stored into a composite literal,
// struct field, map, slice, global, or passed to a summarized storer —
// ownership leaves the parameter.
func (e *resourceEngine) storesParams() []int {
	var out []int
	for i, p := range e.params {
		if p == nil {
			continue
		}
		if e.bodyStores(e.decl.Body, p) {
			out = append(out, i)
		}
	}
	return out
}

func (e *resourceEngine) bodyStores(body ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if e.isUseOf(el, v) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for li, lhs := range n.Lhs {
				if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
					continue
				}
				// x.f = v, m[k] = v, *p = v: stored through a container.
				if li < len(n.Rhs) && e.isUseOf(n.Rhs[li], v) {
					found = true
				}
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					break
				}
			}
		case *ast.CallExpr:
			if isBuiltin(e.info, n, "append") {
				for _, a := range n.Args[1:] {
					if e.isUseOf(a, v) {
						found = true
					}
				}
			} else if e.calleeHandles(n, v, func(s *FuncEffects, i int) bool { return s.storesParam(i) }) {
				found = true
			}
		}
		return !found
	})
	return found
}

// wrapperOpens detects the constructor shape: a returned composite
// literal of a closer-owning type that captures one of the function's
// parameters or locals — OpenSegmented wrapping the caller's reader.
// The result then carries an open handle the caller must close.
func (e *resourceEngine) wrapperOpens() []OpenResult {
	var out []OpenResult
	seen := map[int]bool{}
	ast.Inspect(e.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, res := range ret.Results {
			lit := compositeOf(res)
			if lit == nil || seen[i] {
				continue
			}
			t := e.info.TypeOf(lit)
			if t == nil || !hasCloseMethod(t) {
				continue
			}
			stores := false
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if id := unparenIdent(el); id != nil {
					// A closer-typed field is a resource outright; an
					// interface-typed one (io.ReadSeeker) may hold a file
					// at runtime — the wrapper's Close exists to release
					// it, so the caller owes that call either way.
					if v, _ := e.info.Uses[id].(*types.Var); v != nil &&
						(hasCloseMethod(v.Type()) || types.IsInterface(v.Type())) {
						stores = true
					}
				}
			}
			if stores {
				seen[i] = true
				out = append(out, OpenResult{Result: i, What: typeText(t), Pos: analysis.PositionOf(e.fset, res.Pos())})
			}
		}
		return true
	})
	return out
}

func compositeOf(res ast.Expr) *ast.CompositeLit {
	switch x := ast.Unparen(res).(type) {
	case *ast.CompositeLit:
		return x
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				return lit
			}
		}
	}
	return nil
}

// ---- open-site discovery ----

func (e *resourceEngine) openSites() []openSite {
	var sites []openSite
	ast.Inspect(e.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's opens are its own business
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		resIdx, what, ok := e.openerOf(call)
		if !ok || resIdx >= len(as.Lhs) {
			return true
		}
		id := unparenIdent(as.Lhs[resIdx])
		if id == nil || id.Name == "_" {
			return true
		}
		v := varOfIdent(e.info, id)
		if v == nil || !hasCloseMethod(v.Type()) {
			return true
		}
		site := openSite{v: v, stmt: as, pos: call.Pos(), what: what}
		for _, lhs := range as.Lhs {
			if lid := unparenIdent(lhs); lid != nil {
				if lv := varOfIdent(e.info, lid); lv != nil && isErrorType(lv.Type()) {
					site.errVar = lv
				}
			}
		}
		sites = append(sites, site)
		return true
	})
	return sites
}

// openerOf reports whether call creates an open obligation, the result
// index that carries it, and a description.
func (e *resourceEngine) openerOf(call *ast.CallExpr) (int, string, bool) {
	callee, dynamic, isCall := callgraph.StaticCallee(e.info, call)
	if !isCall || callee == nil {
		return 0, "", false
	}
	if callee.Pkg() != nil {
		key := callee.Pkg().Name() + "." + callee.Name()
		if idx, ok := stdOpeners[key]; ok && !dynamic {
			return idx, key, true
		}
	}
	if sum := e.summaryOf(callee, dynamic); sum != nil && len(sum.Opens) > 0 {
		op := sum.Opens[0]
		return op.Result, callee.Name() + " (" + baseWhat(op.What) + ")", true
	}
	return 0, "", false
}

// baseWhat unwraps a forwarding chain's description to the innermost
// resource: "OpenArchive (OpenSegmented (archive.SegReader))" names an
// archive.SegReader.
func baseWhat(what string) string {
	for {
		i := lastIndexByte(what, '(')
		if i < 0 {
			return what
		}
		what = what[i+1:]
		if j := lastIndexByte(what, ')'); j >= 0 {
			what = what[:j]
		}
	}
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func (e *resourceEngine) summaryOf(callee *types.Func, dynamic bool) *FuncEffects {
	if callee == nil || dynamic || e.lookup == nil {
		return nil
	}
	return e.lookup(callee)
}

// ---- CFG obligation walk ----

// track walks the CFG from the open site, reporting the first exit
// path that leaks. It returns the result index the handle is returned
// through when ownership moves to the caller, or -1.
func (e *resourceEngine) track(g *cfg.CFG, site openSite, out *resourceInfo) (returnedResult int) {
	returnedResult = -1
	openBlock := g.BlockOf(site.stmt.Pos())
	if openBlock == nil {
		return
	}
	startIdx := 0
	for i, n := range openBlock.Nodes {
		if n == ast.Node(site.stmt) {
			startIdx = i + 1
			break
		}
	}

	type work struct {
		b        *cfg.Block
		start    int
		errValid bool // the paired err var still holds the open's error
	}
	visited := map[*cfg.Block]bool{}
	leaked := false
	queue := []work{{openBlock, startIdx, site.errVar != nil}}
	for len(queue) > 0 && !leaked {
		w := queue[0]
		queue = queue[1:]
		if w.start == 0 {
			if visited[w.b] {
				continue
			}
			visited[w.b] = true
		}
		errValid := w.errValid
		terminated := false
		for i := w.start; i < len(w.b.Nodes); i++ {
			n := w.b.Nodes[i]
			if site.errVar != nil && i >= w.start && reassignsVar(e.info, n, site.errVar) && n != ast.Node(site.stmt) {
				errValid = false
			}
			switch ev := e.eventAt(n, site); ev.kind {
			case evDischarge:
				terminated = true
			case evReturnOwn:
				terminated = true
				if ev.result >= 0 {
					returnedResult = ev.result
				}
			case evLeakReturn:
				out.Leaks = append(out.Leaks, LeakFinding{
					OpenPos: site.pos,
					What:    site.what,
					ExitPos: n.Pos(),
					ExitMsg: "returns without closing it",
					Steps: []Step{
						{Pos: site.pos, Msg: fmt.Sprintf("%s opened here", site.what)},
						{Pos: n.Pos(), Msg: fmt.Sprintf("this return leaves %q open", site.v.Name())},
					},
				})
				leaked = true
				terminated = true
			}
			if terminated {
				break
			}
		}
		if terminated || leaked {
			continue
		}
		// Propagate to successors, skipping the error edge of the open's
		// own err check: no resource exists when the open failed.
		succs := w.b.Succs
		if len(succs) == 2 {
			if last := lastCond(w.b); last != nil {
				if eq, isNilCheck := nilCheckOf(e.info, last, site.errVar); isNilCheck && site.errVar != nil && errValid {
					if eq { // err == nil: obligation lives on the true edge
						succs = succs[:1]
					} else { // err != nil: obligation lives on the false edge
						succs = succs[1:]
					}
				} else if eq, isNilCheck := nilCheckOf(e.info, last, site.v); isNilCheck {
					// Branching on the handle itself: a nil handle carries
					// no obligation, so only the non-nil edge stays open.
					if eq { // v == nil: obligation lives on the false edge
						succs = succs[1:]
					} else { // v != nil: obligation lives on the true edge
						succs = succs[:1]
					}
				}
			}
		}
		for _, s := range succs {
			if s.Kind == "exit" {
				// Falling off the end of the body (or an edge into the
				// synthetic exit with the obligation still open).
				out.Leaks = append(out.Leaks, LeakFinding{
					OpenPos: site.pos,
					What:    site.what,
					ExitPos: e.decl.Body.Rbrace,
					ExitMsg: "function ends without closing it",
					Steps: []Step{
						{Pos: site.pos, Msg: fmt.Sprintf("%s opened here", site.what)},
						{Pos: e.decl.Body.Rbrace, Msg: fmt.Sprintf("function ends with %q open", site.v.Name())},
					},
				})
				leaked = true
				break
			}
			if !visited[s] {
				queue = append(queue, work{s, 0, errValid})
			}
		}
	}
	return
}

type eventKind int

const (
	evNone eventKind = iota
	evDischarge
	evReturnOwn
	evLeakReturn
)

type event struct {
	kind   eventKind
	result int
}

// eventAt classifies one CFG node against the tracked handle.
func (e *resourceEngine) eventAt(n ast.Node, site openSite) event {
	v := site.v
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for i, res := range n.Results {
			if e.isUseOf(res, v) {
				return event{evReturnOwn, i}
			}
		}
		// Naked return with the handle as a named result variable.
		if len(n.Results) == 0 && e.decl.Type.Results != nil {
			i := 0
			for _, f := range e.decl.Type.Results.List {
				for _, name := range f.Names {
					if varOfIdent(e.info, name) == v {
						return event{evReturnOwn, i}
					}
					i++
				}
			}
		}
		return event{evLeakReturn, -1}
	case *ast.DeferStmt:
		if e.closesIn(n.Call, v) {
			return event{evDischarge, -1}
		}
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && e.bodyCloses(lit.Body, v) {
			return event{evDischarge, -1}
		}
		return event{evNone, -1}
	}

	// Any nested close/transfer within a straight-line node discharges.
	discharged := false
	ast.Inspect(n, func(x ast.Node) bool {
		if discharged {
			return false
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			if e.closesIn(x, v) {
				discharged = true
			}
		case *ast.FuncLit:
			// Non-deferred closure capturing the handle: ownership is in
			// the closure's hands now.
			if e.isUseOf(x, v) {
				discharged = true
			}
			return false
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if e.isUseOf(el, v) && hasCloseMethod(e.info.TypeOf(x)) {
					discharged = true
				}
			}
		case *ast.AssignStmt:
			for li, lhs := range x.Lhs {
				if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
					// v2 := v — alias; tracking moves with the alias,
					// which is beyond this engine: hand over.
					if li < len(x.Rhs) && unparenIdent(x.Rhs[li]) != nil && varOfIdent(e.info, unparenIdent(x.Rhs[li])) == v {
						discharged = true
					}
					continue
				}
				if li < len(x.Rhs) && e.isUseOf(x.Rhs[li], v) {
					discharged = true // stored through a container
				}
			}
		}
		return !discharged
	})
	if discharged {
		return event{evDischarge, -1}
	}
	return event{evNone, -1}
}

// closesIn reports whether call closes v: v.Close(), or v passed to a
// summarized closer/storer, or appended into a long-lived slice.
func (e *resourceEngine) closesIn(call *ast.CallExpr, v *types.Var) bool {
	if e.isCloseOf(call, v) {
		return true
	}
	if isBuiltin(e.info, call, "append") {
		for _, a := range call.Args[1:] {
			if e.isUseOf(a, v) {
				return true
			}
		}
		return false
	}
	return e.calleeHandles(call, v, func(s *FuncEffects, i int) bool {
		return s.closesParam(i) || s.storesParam(i)
	})
}

// isCloseOf matches v.Close() (and v.f.Close() for a field of v).
func (e *resourceEngine) isCloseOf(call *ast.CallExpr, v *types.Var) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	return rootVarOf(e.info, sel.X) == v
}

// calleeHandles reports whether v is bound to a parameter of call's
// callee for which pred holds on the callee's summary.
func (e *resourceEngine) calleeHandles(call *ast.CallExpr, v *types.Var, pred func(*FuncEffects, int) bool) bool {
	callee, dynamic, isCall := callgraph.StaticCallee(e.info, call)
	if !isCall {
		return false
	}
	sum := e.summaryOf(callee, dynamic)
	if sum == nil {
		return false
	}
	sig, _ := callee.Type().(*types.Signature)
	nparams := 0
	if sig != nil {
		nparams = sig.Params().Len()
		if sig.Recv() != nil {
			nparams++
		}
	}
	for i := 0; i < nparams; i++ {
		if !pred(sum, i) {
			continue
		}
		arg := callgraph.ArgExpr(call, callee, i)
		if arg != nil && e.isUseOf(arg, v) {
			return true
		}
	}
	return false
}

// isUseOf reports whether node mentions v.
func (e *resourceEngine) isUseOf(node ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && varOfIdent(e.info, id) == v {
			found = true
		}
		return !found
	})
	return found
}

// ---- helpers ----

// lastCond returns the final node of a two-successor block when it is
// the branch condition expression.
func lastCond(b *cfg.Block) ast.Expr {
	if len(b.Nodes) == 0 {
		return nil
	}
	if cond, ok := b.Nodes[len(b.Nodes)-1].(ast.Expr); ok {
		return cond
	}
	return nil
}

// nilCheckOf matches `v == nil` / `v != nil`; eq reports which.
func nilCheckOf(info *types.Info, cond ast.Expr, v *types.Var) (eq, ok bool) {
	b, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (b.Op != token.EQL && b.Op != token.NEQ) {
		return false, false
	}
	var side ast.Expr
	if isNilIdent(b.Y) {
		side = b.X
	} else if isNilIdent(b.X) {
		side = b.Y
	} else {
		return false, false
	}
	id := unparenIdent(side)
	if id == nil || varOfIdent(info, id) != v {
		return false, false
	}
	return b.Op == token.EQL, true
}

func isNilIdent(e ast.Expr) bool {
	id := unparenIdent(e)
	return id != nil && id.Name == "nil"
}

// reassignsVar reports whether node assigns v anew.
func reassignsVar(info *types.Info, node ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return !found
		}
		for _, lhs := range as.Lhs {
			if id := unparenIdent(lhs); id != nil && varOfIdent(info, id) == v {
				found = true
			}
		}
		return !found
	})
	return found
}

func varOfIdent(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// hasCloseMethod duck-types t (or *t) against io.Closer: Close() error.
func hasCloseMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	if closeIn(t) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr && !types.IsInterface(t) {
		return closeIn(types.NewPointer(t))
	}
	return false
}

func closeIn(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i)
		if m.Obj().Name() != "Close" {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			continue
		}
		if isErrorType(sig.Results().At(0).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

func typeText(t types.Type) string {
	s := t.String()
	if i := lastSlash(s); i >= 0 {
		s = s[i+1:]
	}
	return s
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

func dedupOpens(out *resourceInfo) {
	seen := map[int]bool{}
	kept := out.Opens[:0]
	for _, op := range out.Opens {
		if seen[op.Result] {
			continue
		}
		seen[op.Result] = true
		kept = append(kept, op)
	}
	out.Opens = kept
}
