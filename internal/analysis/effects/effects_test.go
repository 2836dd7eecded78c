package effects_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/effects"
)

// check type-checks one source string under package name pkg.
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

func compute(t *testing.T, src string) (*analysis.Result[effects.FuncEffects, struct{}], *types.Info, *ast.File) {
	t.Helper()
	fset, f, info := check(t, src)
	return effects.Layer.Compute(&analysis.Pass{Fset: fset, Files: []*ast.File{f}, TypesInfo: info}, nil), info, f
}

func summaryOf(t *testing.T, res *analysis.Result[effects.FuncEffects, struct{}], name string) *effects.FuncEffects {
	t.Helper()
	for fn, s := range res.ByFunc {
		if fn.Name() == name {
			return s
		}
	}
	t.Fatalf("no summary for %s", name)
	return nil
}

func TestNondetResultSummaries(t *testing.T) {
	res, _, _ := compute(t, `package p

import (
	"math/rand"
	"sort"
	"time"
)

func clock() int64 { return time.Now().UnixNano() }

func shared() int { return rand.Int() }

func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Int()
}

func firstKey(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func viaClock() int64 { return clock() }
`)
	cases := []struct {
		fn   string
		kind string // "" means no nondet result expected
	}{
		{"clock", effects.KindTime},
		{"shared", effects.KindRand},
		{"seeded", ""},
		{"firstKey", effects.KindMapOrder},
		{"sortedKeys", ""},
		{"viaClock", effects.KindTime},
	}
	for _, c := range cases {
		s := summaryOf(t, res, c.fn)
		if c.kind == "" {
			if len(s.NondetResults) != 0 {
				t.Errorf("%s: want no nondet results, got %+v", c.fn, s.NondetResults)
			}
			continue
		}
		found := false
		for _, nr := range s.NondetResults {
			if nr.Kind == c.kind && nr.Result == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want result 0 nondet kind %q, got %+v", c.fn, c.kind, s.NondetResults)
		}
	}
	// The inherited summary must name the callee.
	via := summaryOf(t, res, "viaClock")
	if len(via.NondetResults) == 0 || via.NondetResults[0].Via == "" {
		t.Errorf("viaClock: want Via naming the callee, got %+v", via.NondetResults)
	}
}

func TestWriteParamSummaries(t *testing.T) {
	res, _, _ := compute(t, `package p

import (
	"bytes"
	"hash/fnv"
)

func emit(w *bytes.Buffer, b []byte) { w.Write(b) }

func fingerprint(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func emitVia(w *bytes.Buffer, b []byte) { emit(w, b) }
`)
	s := summaryOf(t, res, "emit")
	found := false
	for _, wp := range s.WriteParams {
		if wp.Param == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("emit: want param 1 as write param, got %+v", s.WriteParams)
	}
	s = summaryOf(t, res, "emitVia")
	found = false
	for _, wp := range s.WriteParams {
		if wp.Param == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("emitVia: want inherited write param 1, got %+v", s.WriteParams)
	}
}

func TestResourceSummaries(t *testing.T) {
	res, _, _ := compute(t, `package p

import (
	"io"
	"os"
)

func open(path string) (*os.File, error) {
	return os.Open(path)
}

func openVar(path string) (*os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func closes(c io.Closer) { c.Close() }

func closesDeferred(f *os.File) error {
	defer f.Close()
	return nil
}

type box struct{ f *os.File }

func (b *box) Close() error { return b.f.Close() }

func wrap(f *os.File) *box { return &box{f: f} }

func stores(sink map[string]io.Closer, name string, c io.Closer) {
	sink[name] = c
}
`)
	if s := summaryOf(t, res, "openVar"); len(s.Opens) != 1 || s.Opens[0].Result != 0 {
		t.Errorf("openVar: want Opens result 0, got %+v", s.Opens)
	}
	if s := summaryOf(t, res, "closes"); len(s.ClosesParams) != 1 || s.ClosesParams[0] != 0 {
		t.Errorf("closes: want ClosesParams [0], got %+v", s.ClosesParams)
	}
	if s := summaryOf(t, res, "closesDeferred"); len(s.ClosesParams) != 1 || s.ClosesParams[0] != 0 {
		t.Errorf("closesDeferred: want ClosesParams [0], got %+v", s.ClosesParams)
	}
	// wrap stores its param into a closer-owning struct and returns it:
	// both an ownership transfer and an open result.
	ws := summaryOf(t, res, "wrap")
	if len(ws.StoresParams) != 1 || ws.StoresParams[0] != 0 {
		t.Errorf("wrap: want StoresParams [0], got %+v", ws.StoresParams)
	}
	if len(ws.Opens) != 1 || ws.Opens[0].Result != 0 {
		t.Errorf("wrap: want Opens result 0, got %+v", ws.Opens)
	}
	if s := summaryOf(t, res, "stores"); len(s.StoresParams) != 1 || s.StoresParams[0] != 2 {
		t.Errorf("stores: want StoresParams [2], got %+v", s.StoresParams)
	}
}

func TestLeakFindings(t *testing.T) {
	fset, f, info := check(t, `package p

import "os"

func leaky(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var buf [8]byte
	if _, err := f.Read(buf[:]); err != nil {
		return err
	}
	return f.Close()
}

func clean(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var buf [8]byte
	_, err = f.Read(buf[:])
	return err
}
`)
	var leakyDecl, cleanDecl *ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			switch fd.Name.Name {
			case "leaky":
				leakyDecl = fd
			case "clean":
				cleanDecl = fd
			}
		}
	}
	leaks := effects.LeakFindings(fset, info, leakyDecl, nil)
	if len(leaks) != 1 {
		t.Fatalf("leaky: want 1 leak, got %+v", leaks)
	}
	if len(leaks[0].Steps) < 2 {
		t.Errorf("leaky: want a source-to-exit path, got %+v", leaks[0].Steps)
	}
	if got := effects.LeakFindings(fset, info, cleanDecl, nil); len(got) != 0 {
		t.Errorf("clean: want no leaks, got %+v", got)
	}
}

func TestFactRoundTrip(t *testing.T) {
	res, _, _ := compute(t, `package p

import "time"

func clock() int64 { return time.Now().UnixNano() }
`)
	blob, err := effects.Layer.Encode(res)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(blob) == 0 {
		t.Fatalf("encode: want non-empty fact blob")
	}
	decoded, err := analysis.DecodeFact[effects.FuncEffects](blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	s, ok := decoded["p.clock"]
	if !ok {
		t.Fatalf("decoded fact missing p.clock: %v", decoded)
	}
	if len(s.NondetResults) != 1 || s.NondetResults[0].Kind != effects.KindTime {
		t.Errorf("round-tripped summary: got %+v", s.NondetResults)
	}
}
