package vrange

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/analysis"
)

func computeSrc(t *testing.T, src string) *Result {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	cfg := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := cfg.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Layer.Compute(&analysis.Pass{Fset: fset, Files: []*ast.File{f}, TypesInfo: info}, nil)
}

func funcResult(t *testing.T, res *Result, name string) *FuncResult {
	t.Helper()
	for fn, fr := range res.Output {
		if fn.Name() == name {
			return fr
		}
	}
	t.Fatalf("no engine result for %q", name)
	return nil
}

func rangeOf(t *testing.T, res *Result, name string) *FuncRange {
	t.Helper()
	for fn, r := range res.ByFunc {
		if fn.Name() == name {
			return r
		}
	}
	t.Fatalf("no range summary for %q", name)
	return nil
}

// sitesOf partitions a function's sites by proof status.
func sitesOf(fr *FuncResult) (proven, unproven []*Site) {
	for _, s := range fr.Sites {
		if s.Proven {
			proven = append(proven, s)
		} else {
			unproven = append(unproven, s)
		}
	}
	return
}

func wantAllProven(t *testing.T, res *Result, name string) {
	t.Helper()
	fr := funcResult(t, res, name)
	if _, unproven := sitesOf(fr); len(unproven) != 0 {
		for _, s := range unproven {
			t.Errorf("%s: unproven %s (deriv wire=%v params=%v)", name, s.Kind, s.Deriv.FromWire(), s.Deriv.ParamBits())
		}
	}
}

func TestGuardRefinementBoundsResult(t *testing.T) {
	res := computeSrc(t, `package p

func clampHi(n int) int {
	if n > 4096 {
		return 4096
	}
	if n < 0 {
		return 0
	}
	return n
}
`)
	r := rangeOf(t, res, "clampHi")
	if len(r.Results) != 1 || r.Results[0].Lo != 0 || r.Results[0].Hi != 4096 {
		t.Errorf("clampHi range = %+v, want [0,4096]", r.Results)
	}
}

func TestDynamicGuardProvesIndex(t *testing.T) {
	res := computeSrc(t, `package p

import "encoding/binary"

// The decoder shape: dictionary size and index both read from the
// wire, validated against each other, then indexed.
func decodeDict(data []byte) uint64 {
	dlenU, _ := binary.Uvarint(data)
	dlen := int(dlenU)
	if dlen <= 0 || dlen > 1<<16 {
		return 0
	}
	dict := make([]uint64, dlen)
	ixU, _ := binary.Uvarint(data)
	ix := int(ixU)
	if ix < 0 || ix >= dlen {
		return 0
	}
	return dict[ix]
}
`)
	wantAllProven(t, res, "decodeDict")
}

func TestShortCircuitUnsignedGuard(t *testing.T) {
	res := computeSrc(t, `package p

import "encoding/binary"

// Two wire-read column ids checked in one short-circuit guard against
// uint64(ncols), where ncols is len(schema): the || refinement and
// the wrap-free conversion unwrap must both fire.
func readPair(data []byte, schema []int) int {
	ncols := len(schema)
	cols := make([]int, ncols)
	aU, _ := binary.Uvarint(data)
	bU, _ := binary.Uvarint(data)
	if aU >= uint64(ncols) || bU >= uint64(ncols) {
		return 0
	}
	return cols[aU] + cols[bU] + schema[aU]
}
`)
	wantAllProven(t, res, "readPair")
}

func TestRangeLoopAndCounterLoop(t *testing.T) {
	res := computeSrc(t, `package p

func sumRange(xs []int) int {
	s := 0
	for i := range xs {
		s += xs[i]
	}
	return s
}

func sumCounter(n int) int {
	xs := make([]int, n)
	s := 0
	for i := 0; i < n; i++ {
		s += xs[i]
	}
	return s
}

func rangeOverInt(n int) int {
	xs := make([]int, n)
	s := 0
	for i := range n {
		s += xs[i]
	}
	return s
}
`)
	wantAllProven(t, res, "sumRange")
	wantAllProven(t, res, "sumCounter")
	wantAllProven(t, res, "rangeOverInt")
}

func TestSelfAppendPreservesStartOffset(t *testing.T) {
	res := computeSrc(t, `package p

// start := len(dst) then self-append: dst[start:] stays in bounds
// because the length only grew.
func pack(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	_ = dst[start:]
	return dst
}
`)
	wantAllProven(t, res, "pack")
}

func TestLenEqualityGuard(t *testing.T) {
	res := computeSrc(t, `package p

func dot(a, b []int) int {
	if len(a) != len(b) {
		return 0
	}
	s := 0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
`)
	wantAllProven(t, res, "dot")
}

func TestMinOfParamsSummary(t *testing.T) {
	res := computeSrc(t, `package p

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// A caller with one constant argument gets a bounded result.
func use(n int) []byte {
	return make([]byte, minInt(n, 4096))
}
`)
	r := rangeOf(t, res, "minInt")
	if len(r.Results) != 1 || len(r.Results[0].MinOfParams) != 2 ||
		r.Results[0].MinOfParams[0] != 0 || r.Results[0].MinOfParams[1] != 1 {
		t.Fatalf("minInt summary = %+v, want MinOfParams [0 1]", r.Results)
	}
	// The call-site clamp: minInt(n, 4096) ≤ 4096.
	fr := funcResult(t, res, "use")
	bounded := false
	for x, iv := range fr.ExprIv {
		if call, ok := x.(*ast.CallExpr); ok && iv.BoundedAbove() && iv.Hi == 4096 {
			_ = call
			bounded = true
		}
	}
	if !bounded {
		t.Errorf("use: no expression proved ≤ 4096; intervals = %v", fr.ExprIv)
	}
}

func TestSameLenAsTwinMakes(t *testing.T) {
	res := computeSrc(t, `package p

func twins(n int) ([]int, []uint64) {
	if n < 0 {
		n = 0
	}
	xs := make([]int, n)
	ys := make([]uint64, n)
	return xs, ys
}

// The caller proves an index into one twin from a bound on the other.
func caller(n, i int) int {
	xs, ys := twins(n)
	if i < 0 || i >= len(xs) {
		return 0
	}
	return xs[i] + int(ys[i])
}
`)
	r := rangeOf(t, res, "twins")
	if len(r.Results) != 2 || len(r.Results[1].SameLenAs) != 1 || r.Results[1].SameLenAs[0] != 0 {
		t.Fatalf("twins summary = %+v, want result 1 SameLenAs [0]", r.Results)
	}
	wantAllProven(t, res, "caller")
}

func TestInterproceduralIndexParam(t *testing.T) {
	res := computeSrc(t, `package p

import "encoding/binary"

func pick(xs []int, i int) int { return xs[i] }

func guarded(xs []int, i int) int {
	if i < 0 || i >= len(xs) {
		return 0
	}
	return pick(xs, i)
}

func wild(xs []int, data []byte) int {
	v, _ := binary.Uvarint(data)
	return pick(xs, int(v))
}
`)
	r := rangeOf(t, res, "pick")
	found := false
	for _, ip := range r.IndexParams {
		if ip.Param == 1 && ip.BaseParam == 0 && ip.What == "index" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pick IndexParams = %+v, want param 1 indexing base param 0", r.IndexParams)
	}
	wantAllProven(t, res, "guarded")

	fr := funcResult(t, res, "wild")
	_, unproven := sitesOf(fr)
	if len(unproven) != 1 || !unproven[0].Deriv.FromWire() || unproven[0].Callee == nil {
		t.Fatalf("wild sites = %d unproven (want 1 wire-derived lifted site)", len(unproven))
	}
	if steps := unproven[0].Deriv.Steps(); len(steps) == 0 {
		t.Error("wild: lifted site has no derivation path")
	}
}

func TestWireIndexUnproven(t *testing.T) {
	res := computeSrc(t, `package p

import "encoding/binary"

func bad(xs []int, data []byte) int {
	v, _ := binary.Uvarint(data)
	return xs[v]
}

// The same read, guarded: no finding material.
func good(xs []int, data []byte) int {
	v, _ := binary.Uvarint(data)
	if v >= uint64(len(xs)) {
		return 0
	}
	return xs[v]
}
`)
	fr := funcResult(t, res, "bad")
	_, unproven := sitesOf(fr)
	if len(unproven) != 1 || !unproven[0].Deriv.FromWire() {
		t.Fatalf("bad: want exactly one wire-derived unproven site, got %d", len(unproven))
	}
	wantAllProven(t, res, "good")
}

func TestWideningTerminatesAndStaysSound(t *testing.T) {
	// An up-counting loop with no bound would cycle forever without
	// widening; with it, i's interval must still contain every concrete
	// iterate (lower bound 0 survives, upper blows to +inf).
	res := computeSrc(t, `package p

func count(n int) int {
	s := 0
	for i := 0; i != n; i++ {
		s += i
	}
	return s
}
`)
	fr := funcResult(t, res, "count")
	for x, iv := range fr.ExprIv {
		if id, ok := x.(*ast.Ident); ok && id.Name == "i" {
			if iv.IsEmpty() || iv.Lo < 0 {
				t.Errorf("i interval %v lost the non-negative lower bound", iv)
			}
		}
	}
}

func TestMaskAndModClamps(t *testing.T) {
	res := computeSrc(t, `package p

import "encoding/binary"

// The clamps the old syntactic detection missed: mask and modulo.
func masked(data []byte) []byte {
	v, _ := binary.Uvarint(data)
	return make([]byte, v&0xffff)
}

func modded(data []byte) []byte {
	v, _ := binary.Uvarint(data)
	return make([]byte, v%1024)
}
`)
	for _, name := range []string{"masked", "modded"} {
		fr := funcResult(t, res, name)
		bounded := false
		for _, iv := range fr.ExprIv {
			if iv.BoundedAbove() && iv.NonNegative() && iv.Hi <= 0xffff {
				bounded = true
			}
		}
		if !bounded {
			t.Errorf("%s: make size not proved bounded", name)
		}
	}
}

func TestSliceCopySharesLength(t *testing.T) {
	res := computeSrc(t, `package p

func alias(xs []int, i int) int {
	ys := xs
	if i < 0 || i >= len(xs) {
		return 0
	}
	return ys[i]
}
`)
	wantAllProven(t, res, "alias")
}

func TestPristineGateOnReassignedParam(t *testing.T) {
	// A reassigned parameter must not yield a min-of-params claim.
	res := computeSrc(t, `package p

func sneaky(a int) int {
	a = 1 << 30
	return a
}
`)
	r := rangeOf(t, res, "sneaky")
	if len(r.Results) != 1 || len(r.Results[0].MinOfParams) != 0 {
		t.Errorf("sneaky summary = %+v, want no MinOfParams", r.Results)
	}
	if r.Results[0].Lo != 1<<30 || r.Results[0].Hi != 1<<30 {
		t.Errorf("sneaky result = %+v, want exactly 1<<30", r.Results[0])
	}
}
