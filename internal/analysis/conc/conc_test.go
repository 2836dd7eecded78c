package conc_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/conc"
)

// check type-checks one source string and returns what the conc layer
// needs: the fileset, file, and types info.
func check(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := cfg.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, info
}

func funcBody(f *ast.File, name string) *ast.BlockStmt {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body
		}
	}
	return nil
}

func TestLocksetAtAndExit(t *testing.T) {
	_, f, info := check(t, `package p

import "sync"

type s struct {
	mu sync.Mutex
	n  int
}

func (x *s) balanced() {
	x.mu.Lock()
	x.n++
	x.mu.Unlock()
	x.n--
}

func (x *s) deferred() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.n++
}

func (x *s) leaky() {
	x.mu.Lock()
	x.n++
}
`)
	find := func(name, sub string) token.Pos {
		body := funcBody(f, name)
		var pos token.Pos
		ast.Inspect(body, func(n ast.Node) bool {
			if inc, ok := n.(*ast.IncDecStmt); ok {
				if inc.Tok.String() == sub {
					pos = inc.Pos()
				}
			}
			return true
		})
		return pos
	}

	ls := conc.SolveLocksets(funcBody(f, "balanced"), info, nil)
	if set, ok := ls.At(find("balanced", "++")); !ok || !set.Has("x.mu") {
		t.Errorf("x.mu should be held at the guarded increment (ok=%v keys=%v)", ok, set.Keys())
	}
	if set, ok := ls.At(find("balanced", "--")); !ok || set.Has("x.mu") {
		t.Errorf("x.mu should be released at the decrement (ok=%v keys=%v)", ok, set.Keys())
	}
	if exit, ok := ls.AtExit(); !ok || len(exit.Keys()) != 0 {
		t.Errorf("balanced should exit lock-free, got %v", exit.Keys())
	}

	// A deferred unlock nets the exit set to empty even though the
	// straight-line code never releases.
	ls = conc.SolveLocksets(funcBody(f, "deferred"), info, nil)
	if set, ok := ls.At(find("deferred", "++")); !ok || !set.Has("x.mu") {
		t.Errorf("x.mu should be held at deferred's increment (ok=%v keys=%v)", ok, set.Keys())
	}
	if exit, ok := ls.AtExit(); !ok || len(exit.Keys()) != 0 {
		t.Errorf("deferred unlock should clear the exit set, got %v", exit.Keys())
	}

	ls = conc.SolveLocksets(funcBody(f, "leaky"), info, nil)
	if exit, ok := ls.AtExit(); !ok || !exit.Has("x.mu") {
		t.Errorf("leaky should exit holding x.mu, got ok=%v %v", ok, exit.Keys())
	}
}

func TestSpawnsCapturesAndLoops(t *testing.T) {
	_, f, info := check(t, `package p

func use(int) {}

func spawner(rows []int) {
	shared := 0
	for _, r := range rows {
		go func() {
			shared += r
		}()
	}
	go use(shared)
}
`)
	spawns := conc.Spawns(info, funcBody(f, "spawner"), nil)
	if len(spawns) != 2 {
		t.Fatalf("expected 2 spawns, got %d", len(spawns))
	}
	inLoop := spawns[0]
	if inLoop.Lit == nil || inLoop.Loop == nil {
		t.Fatalf("first spawn should be a closure inside the loop")
	}
	var names []string
	for _, v := range inLoop.Captured {
		names = append(names, v.Name())
	}
	// r is declared by the range clause (per-iteration, still captured);
	// shared is the function-local accumulator.
	want := map[string]bool{"shared": true, "r": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected captured variable %q", n)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("capture of %q not detected", n)
	}
	if inLoop.FirstUse[inLoop.Captured[0]] == token.NoPos {
		t.Errorf("captured variable should carry its first use position")
	}
	named := spawns[1]
	if named.Lit != nil || named.Loop != nil || named.Go == nil {
		t.Errorf("second spawn should be a named-function go outside the loop")
	}
}

func TestComputeSummaries(t *testing.T) {
	fset, f, info := check(t, `package p

import "sync"

type store struct {
	mu sync.Mutex
	n  int
}

func (s *store) lock()   { s.mu.Lock() }
func (s *store) unlock() { s.mu.Unlock() }

func (s *store) addGuarded(v int) {
	s.lock()
	s.n += v
	s.unlock()
}

func (s *store) addRaw(v int) {
	s.n += v
}

func fire(s *store) {
	go s.addRaw(1)
}

func fireJoined(s *store) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.addRaw(1)
	}()
	wg.Wait()
}
`)
	res := conc.Layer.Compute(&analysis.Pass{Fset: fset, Files: []*ast.File{f}, TypesInfo: info}, nil)
	byName := map[string]*conc.FuncConc{}
	for fn, s := range res.ByFunc {
		byName[fn.Name()] = s
	}

	lockSum := byName["lock"]
	if len(lockSum.NetLocks) != 1 || lockSum.NetLocks[0].Op != "lock" || lockSum.NetLocks[0].Param != 0 || lockSum.NetLocks[0].Path != "mu" {
		t.Errorf("lock helper summary wrong: %+v", lockSum.NetLocks)
	}
	unlockSum := byName["unlock"]
	if len(unlockSum.NetLocks) != 1 || unlockSum.NetLocks[0].Op != "unlock" {
		t.Errorf("unlock helper summary wrong: %+v", unlockSum.NetLocks)
	}

	// addGuarded's write happens between the summarized lock and unlock
	// helpers, so the interprocedural lockset covers it.
	if n := len(byName["addGuarded"].UnguardedWrites); n != 0 {
		t.Errorf("addGuarded should have no unguarded writes, got %d", n)
	}
	raw := byName["addRaw"]
	if len(raw.UnguardedWrites) != 1 || raw.UnguardedWrites[0].Param != 0 {
		t.Errorf("addRaw should record one unguarded receiver write, got %+v", raw.UnguardedWrites)
	}

	if s := byName["fire"]; !s.Spawns || !s.AsyncSpawn || len(s.SpawnSites) != 1 {
		t.Errorf("fire should spawn asynchronously: %+v", s)
	}
	if s := byName["fireJoined"]; !s.Spawns || s.AsyncSpawn {
		t.Errorf("fireJoined should spawn but join before returning: %+v", s)
	}
}
