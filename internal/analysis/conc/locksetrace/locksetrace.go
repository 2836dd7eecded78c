// Package locksetrace flags shared-variable accesses whose locksets
// cannot overlap: a variable written inside a spawned goroutine and
// accessed outside it (or in another goroutine) where the two sites
// hold no common mutex. It is the static counterpart of the -race job:
// the dynamic detector only sees interleavings the tests happen to
// schedule, while the lockset discipline is checkable on every path.
//
// The check is built on the conc layer: goroutine spawn sites with
// their by-reference captures, a forward must-lockset dataflow over
// both the spawning function and each closure body, and the
// "concsummary" facts for writes that happen inside called helpers
// (including cross-package ones).
//
// Established safe idioms are recognized, not flagged:
//
//   - per-goroutine slots — writes like scanErrs[i] where the index is
//     closure-local, so instances touch disjoint elements;
//   - join ordering — accesses by the spawning function after a
//     wg.Wait() joining the goroutine (or a receive from a channel it
//     sends on or closes) happen after it, as do accesses before the
//     spawn;
//   - internally synchronized types — channels, sync.* values and
//     context.Context are not treated as racy state.
package locksetrace

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/conc"
)

// Analyzer flags goroutine accesses with provably disjoint locksets.
var Analyzer = &analysis.Analyzer{
	Name: "locksetrace",
	Doc: "flag variables written in a spawned goroutine and accessed elsewhere with no common lock\n\n" +
		"A write inside a go closure that can interleave with another access —\n" +
		"in the spawning function before a join, or in another goroutine\n" +
		"instance — must share a mutex with it. Shard per-goroutine results\n" +
		"into distinct slots, join with wg.Wait() before reading, or guard\n" +
		"both sides with the same lock.",
	Run: run,
}

var scope = []string{"core", "codec", "archive", "selector", "cart", "fascicle", "obs", "server", "spartand", "bench"}

func run(pass *analysis.Pass) error {
	if !pass.PackageBase(scope...) {
		return nil
	}
	lookup := conc.Layer.Run(pass).Lookup
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkBody(pass, body, lookup)
			}
			return true
		})
	}
	return nil
}

// access is one touch of a tracked variable: where, whether it writes,
// whether it goes through a goroutine-local index (sharded), and the
// summarized helper that performs it, if any.
type access struct {
	v       *types.Var
	pos     token.Pos
	write   bool
	sharded bool
	via     *types.Func
	viaPos  analysis.Position
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, lookup conc.Lookup) {
	info := pass.TypesInfo
	spawns := conc.Spawns(info, body, lookup)
	var litSpawns []conc.Spawn
	for _, sp := range spawns {
		if sp.Lit != nil && len(sp.Captured) > 0 {
			litSpawns = append(litSpawns, sp)
		}
	}
	if len(litSpawns) == 0 {
		return
	}
	effect := conc.EffectFromLookup(info, lookup)

	// Which captured variables to track: mutable memory the goroutine
	// shares with its spawner. Channels, sync primitives and contexts
	// synchronize internally.
	tracked := map[*types.Var]bool{}
	for _, sp := range litSpawns {
		for _, v := range sp.Captured {
			if racyState(v.Type()) {
				tracked[v] = true
			}
		}
	}
	if len(tracked) == 0 {
		return
	}

	outerLS := conc.SolveLocksets(body, info, effect)
	outer := collectAccesses(info, outerBody{body, litSpawns}, tracked, lookup)

	type goroutine struct {
		sp      conc.Spawn
		ls      *conc.Locksets
		acc     []access
		syncPos token.Pos // first join after the spawn; NoPos = never joined
	}
	gs := make([]goroutine, len(litSpawns))
	for i, sp := range litSpawns {
		jk := conc.Joins(info, sp.Lit)
		gs[i] = goroutine{
			sp:      sp,
			ls:      conc.SolveLocksets(sp.Lit.Body, info, effect),
			acc:     collectAccesses(info, litBody{sp.Lit}, tracked, lookup),
			syncPos: conc.SyncAfter(info, body, jk, sp.Go.Pos()),
		}
	}

	reported := map[token.Pos]bool{}
	report := func(g goroutine, a access, counter access, counterSet conc.LockSet, where string) {
		if reported[a.pos] {
			return
		}
		reported[a.pos] = true
		set, _ := g.ls.At(a.pos)
		verb := "written"
		if !a.write {
			verb = "read"
		}
		related := []analysis.RelatedLocation{
			{Pos: g.sp.Go.Pos(), Message: spawnNote(g.sp)},
		}
		if a.via != nil {
			related = append(related,
				analysis.RelatedLocation{Pos: a.pos, Message: fmt.Sprintf("%s passed to %s here, %s", a.v.Name(), a.via.Name(), holding(set))},
				analysis.RelatedLocation{Position: a.viaPos.ToTokenPosition(), Message: fmt.Sprintf("written without a lock inside %s", a.via.Name())},
			)
		} else {
			related = append(related, analysis.RelatedLocation{Pos: a.pos, Message: fmt.Sprintf("%s %s here, %s", a.v.Name(), verb, holding(set))})
		}
		crel := analysis.RelatedLocation{Pos: counter.pos, Message: fmt.Sprintf("conflicting access, %s", holding(counterSet))}
		if counter.via != nil {
			crel.Message = fmt.Sprintf("conflicting write inside %s called here, %s", counter.via.Name(), holding(counterSet))
		}
		related = append(related, crel)
		pass.Report(analysis.Diagnostic{
			Pos: a.pos,
			Message: fmt.Sprintf("%s is %s in a spawned goroutine and accessed %s with no common lock; guard both sides with one mutex, shard into per-goroutine slots, or join with wg.Wait() first",
				a.v.Name(), verb, where),
			Related: related,
		})
	}

	for i := range gs {
		g := &gs[i]
		for _, a := range g.acc {
			if a.sharded {
				continue
			}
			aSet, ok := g.ls.At(a.pos)
			if !ok {
				continue
			}
			// Same spawn site in a loop: every iteration runs another
			// instance of this closure, so any two of its accesses — a
			// write paired with itself included — can interleave.
			if a.write && g.sp.Loop != nil {
				// A second instance of the same write holds the same
				// lockset; it only conflicts when that set is empty.
				if len(aSet.Keys()) == 0 {
					report(*g, a, a, aSet, "by other instances of the same loop-spawned goroutine")
					continue
				}
				for _, b := range g.acc {
					if b.v != a.v || b.sharded {
						continue
					}
					bSet, ok := g.ls.At(b.pos)
					if ok && !aSet.Intersects(bSet) {
						report(*g, a, b, bSet, "by other instances of the same loop-spawned goroutine")
						break
					}
				}
				if reported[a.pos] {
					continue
				}
			}
			// A different goroutine in the same function.
			for j := range gs {
				if j == i || reported[a.pos] {
					continue
				}
				for _, b := range gs[j].acc {
					if b.v != a.v || b.sharded || !(a.write || b.write) {
						continue
					}
					bSet, ok := gs[j].ls.At(b.pos)
					if ok && !aSet.Intersects(bSet) {
						report(*g, a, b, bSet, "in another goroutine spawned by the same function")
						break
					}
				}
			}
			if reported[a.pos] {
				continue
			}
			// The spawning function itself, in the window between the
			// spawn (everything before it happens-before the goroutine)
			// and the join (everything after happens-after).
			for _, b := range outer {
				if b.v != a.v || !(a.write || b.write) {
					continue
				}
				if b.pos <= g.sp.Go.End() {
					continue
				}
				if g.syncPos != token.NoPos && b.pos >= g.syncPos {
					continue
				}
				bSet, ok := outerLS.At(b.pos)
				if ok && !aSet.Intersects(bSet) {
					report(*g, a, b, bSet, "by the spawning function before any join")
					break
				}
			}
		}
	}
}

// spawnNote renders the spawn-site related message.
func spawnNote(sp conc.Spawn) string {
	if sp.Loop != nil {
		return "goroutine spawned here, once per loop iteration"
	}
	return "goroutine spawned here"
}

// holding renders a lockset for diagnostics.
func holding(s conc.LockSet) string {
	keys := s.Keys()
	if len(keys) == 0 {
		return "holding no locks"
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	return "holding " + strings.Join(names, ", ")
}

// racyState reports whether a variable of this type is shared mutable
// memory worth tracking. Channels and sync.* primitives synchronize
// internally; contexts are immutable.
func racyState(t types.Type) bool {
	seen := 0
	for {
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "sync", "sync/atomic":
					return false
				case "context":
					return false
				case "time":
					if obj.Name() == "Timer" || obj.Name() == "Ticker" {
						return false
					}
				}
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Chan:
			return false
		case *types.Pointer:
			if seen++; seen > 4 {
				return true
			}
			t = u.Elem()
		default:
			return true
		}
	}
}

// accessScope abstracts "the outer body minus spawned closures" vs "one
// closure body" for the collector.
type accessScope interface {
	walk(visit func(ast.Node))
	span() (token.Pos, token.Pos) // locality bounds for the sharding test
}

type outerBody struct {
	body   *ast.BlockStmt
	spawns []conc.Spawn
}

func (o outerBody) walk(visit func(ast.Node)) {
	ast.Inspect(o.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func (o outerBody) span() (token.Pos, token.Pos) { return o.body.Pos(), o.body.End() }

type litBody struct{ lit *ast.FuncLit }

func (l litBody) walk(visit func(ast.Node)) {
	ast.Inspect(l.lit.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != l.lit {
			return false // nested closure: runs on its own schedule
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func (l litBody) span() (token.Pos, token.Pos) { return l.lit.Pos(), l.lit.End() }

// collectAccesses gathers reads and writes of the tracked variables in
// one scope. Writes come from assignment/inc-dec/copy targets and from
// calls whose concurrency summary records an unguarded parameter write;
// reads are the remaining identifier uses.
func collectAccesses(info *types.Info, sc accessScope, tracked map[*types.Var]bool, lookup conc.Lookup) []access {
	from, to := sc.span()
	var out []access
	writeSpans := map[*ast.Ident]bool{} // root idents consumed by a write target
	sc.walk(func(n ast.Node) {
		for _, w := range conc.WriteTargets(info, n, lookup) {
			root := conc.RootVar(info, w.Expr)
			if root == nil || !tracked[root] {
				continue
			}
			if id := conc.RootIdent(w.Expr); id != nil {
				writeSpans[id] = true
			}
			out = append(out, access{
				v:       root,
				pos:     w.Pos,
				write:   true,
				sharded: conc.ShardedAccess(info, w.Expr, from, to),
				via:     w.Via,
				viaPos:  w.ViaPos,
			})
		}
	})
	sc.walk(func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || writeSpans[id] {
			return
		}
		v, _ := info.Uses[id].(*types.Var)
		if v == nil || !tracked[v] {
			return
		}
		out = append(out, access{v: v, pos: id.Pos()})
	})
	return out
}
