package fascicle

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/floats"
	"repro/internal/table"
)

// paperTable reproduces the 8-tuple table of Figure 1(a).
func paperTable(t testing.TB) *table.Table {
	t.Helper()
	schema := table.Schema{
		{Name: "age", Kind: table.Numeric},
		{Name: "salary", Kind: table.Numeric},
		{Name: "assets", Kind: table.Numeric},
		{Name: "credit", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	rows := [][]any{
		{30.0, 90000.0, 200000.0, "good"},
		{50.0, 110000.0, 250000.0, "good"},
		{70.0, 35000.0, 125000.0, "poor"},
		{75.0, 15000.0, 100000.0, "poor"},
		{25.0, 50000.0, 75000.0, "good"},
		{35.0, 76000.0, 75000.0, "good"},
		{45.0, 100000.0, 175000.0, "poor"},
		{55.0, 80000.0, 150000.0, "good"},
	}
	for _, r := range rows {
		b.MustAppendRow(r...)
	}
	return b.MustBuild()
}

func paperWidths() []float64 { return []float64{2, 5000, 25000, 0} }

// TestPaperExample21 mirrors Example 2.1: with tolerances (2, 5000, 25000,
// 0) fascicles on (assets, credit) reduce the stored value count below the
// raw 8×4 = 32 values.
func TestPaperExample21(t *testing.T) {
	tb := paperTable(t)
	c, err := Cluster(tb, Params{K: 2, MinSize: 2, Widths: paperWidths()})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fascicles) == 0 {
		t.Fatal("no fascicles found on the paper's example")
	}
	if got := c.CompressedValueCount(tb); got >= 32 {
		t.Errorf("fascicles store %d values, want < 32", got)
	}
	// Every fascicle must satisfy the compactness semantics.
	assertCompact(t, tb, c, paperWidths())
}

func assertCompact(t *testing.T, tb *table.Table, c *Clustering, widths []float64) {
	t.Helper()
	for fi := range c.Fascicles {
		f := &c.Fascicles[fi]
		for j, attr := range f.CompactAttrs {
			col := tb.Col(attr)
			if col.Kind == table.Numeric {
				mn, mx := math.Inf(1), math.Inf(-1)
				for _, r := range f.Rows {
					v := col.Floats[r]
					mn = math.Min(mn, v)
					mx = math.Max(mx, v)
				}
				if mx-mn > 2*widths[attr]+1e-9 {
					t.Errorf("fascicle %d attr %d range %g exceeds 2e=%g",
						fi, attr, mx-mn, 2*widths[attr])
				}
				rep := f.NumReps[j]
				for _, r := range f.Rows {
					if math.Abs(col.Floats[r]-rep) > widths[attr]+1e-9 {
						t.Errorf("fascicle %d attr %d rep %g is %g from member",
							fi, attr, rep, math.Abs(col.Floats[r]-rep))
					}
				}
			} else {
				for _, r := range f.Rows {
					if col.Codes[r] != f.CatReps[j] {
						t.Errorf("fascicle %d: categorical attr %d not constant", fi, attr)
					}
				}
			}
		}
	}
}

func TestClusterParamValidation(t *testing.T) {
	tb := paperTable(t)
	if _, err := Cluster(tb, Params{Widths: []float64{1}}); err == nil {
		t.Error("Cluster accepted wrong-length widths")
	}
	if _, err := Cluster(tb, Params{Widths: paperWidths(),
		SplitValues: [][]float64{nil}}); err == nil {
		t.Error("Cluster accepted wrong-length split values")
	}
	// K larger than the column count clamps.
	c, err := Cluster(tb, Params{K: 99, MinSize: 2, Widths: paperWidths()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Fascicles {
		if len(c.Fascicles[i].CompactAttrs) > tb.NumCols() {
			t.Error("fascicle has more compact attrs than columns")
		}
	}
}

func TestClusterCoversAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := clusteredTable(rng, 500)
	widths := []float64{1, 1, 0}
	c, err := Cluster(tb, Params{K: 2, Widths: widths})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, tb.NumRows())
	for i := range c.Fascicles {
		for _, r := range c.Fascicles[i].Rows {
			if seen[r] {
				t.Fatalf("row %d in two fascicles", r)
			}
			seen[r] = true
		}
	}
	for _, r := range c.Leftover {
		if seen[r] {
			t.Fatalf("leftover row %d also in a fascicle", r)
		}
		seen[r] = true
	}
	for r, s := range seen {
		if !s {
			t.Fatalf("row %d unaccounted for", r)
		}
	}
}

// clusteredTable draws rows from a few well-separated centers, ideal for
// fascicle detection.
func clusteredTable(rng *rand.Rand, n int) *table.Table {
	schema := table.Schema{
		{Name: "a", Kind: table.Numeric},
		{Name: "b", Kind: table.Numeric},
		{Name: "c", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	centers := [][2]float64{{10, 100}, {50, 200}, {90, 300}}
	cats := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		b.MustAppendRow(
			centers[k][0]+rng.Float64(),
			centers[k][1]+rng.Float64(),
			cats[k],
		)
	}
	return b.MustBuild()
}

func TestQuantizePreservesOrderAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tb := clusteredTable(rng, 400)
	widths := []float64{1, 1, 0}
	c, err := Cluster(tb, Params{K: 2, Widths: widths})
	if err != nil {
		t.Fatal(err)
	}
	q := c.Quantize(tb)
	if q.NumRows() != tb.NumRows() {
		t.Fatal("Quantize changed row count")
	}
	diffs, err := table.MaxAbsDiff(tb, q)
	if err != nil {
		t.Fatal(err)
	}
	for a, d := range diffs {
		if d > widths[a]+1e-9 {
			t.Errorf("attr %d quantization error %g > width %g", a, d, widths[a])
		}
	}
	// Categorical column must be untouched.
	if !floats.SameBits(diffs[2], 0) {
		t.Error("categorical column changed by quantization")
	}
}

func TestSplitValueInvariantProperty(t *testing.T) {
	// Property: with SplitValues set, quantized values stay on the same
	// side of every split value as the originals.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := clusteredTable(rng, 200)
		splits := [][]float64{{10.5, 50.5, 89.9}, {150, 250.2}, nil}
		widths := []float64{1, 1, 0}
		c, err := Cluster(tb, Params{K: 2, Widths: widths, SplitValues: splits})
		if err != nil {
			return false
		}
		q := c.Quantize(tb)
		for a := 0; a < 2; a++ {
			for r := 0; r < tb.NumRows(); r++ {
				orig, quant := tb.Float(r, a), q.Float(r, a)
				for _, v := range splits[a] {
					if (orig <= v) != (quant <= v) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeErrorBoundProperty(t *testing.T) {
	f := func(seed int64, wByte uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := clusteredTable(rng, 150)
		w := float64(wByte)/16 + 0.1
		widths := []float64{w, w, 0}
		c, err := Cluster(tb, Params{Widths: widths})
		if err != nil {
			return false
		}
		q := c.Quantize(tb)
		diffs, err := table.MaxAbsDiff(tb, q)
		if err != nil {
			return false
		}
		return diffs[0] <= w+1e-9 && diffs[1] <= w+1e-9 && floats.SameBits(diffs[2], 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// rowStrings renders a table as a sorted multiset of row strings for
// order-insensitive comparison.
func rowStrings(t *table.Table) []string {
	out := make([]string, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		var sb strings.Builder
		for c := 0; c < t.NumCols(); c++ {
			if t.Attr(c).Kind == table.Numeric {
				sb.WriteString(strconv.FormatFloat(t.Float(r, c), 'g', 8, 64))
			} else {
				sb.WriteString(t.CatString(r, c))
			}
			sb.WriteByte('|')
		}
		out[r] = sb.String()
	}
	sort.Strings(out)
	return out
}

func TestCompressDecompressMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := clusteredTable(rng, 300)
	widths := []float64{1, 1, 0}
	p := Params{K: 2, Widths: widths}
	c, err := Cluster(tb, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, gz := range []bool{false, true} {
		data, err := c.Encode(tb, gz)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decompress(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumRows() != tb.NumRows() {
			t.Fatalf("gz=%v: decompressed %d rows, want %d", gz, back.NumRows(), tb.NumRows())
		}
		// Decompressed rows (a multiset) must equal the quantized table's
		// rows, modulo float32 storage of non-compact numeric cells.
		want := rowStrings(c.Quantize(tb))
		got := rowStrings(back)
		mismatches := 0
		for i := range want {
			if want[i] != got[i] {
				mismatches++
			}
		}
		// Values in these tables are small enough to be exact in float32.
		if mismatches != 0 {
			t.Errorf("gz=%v: %d/%d rows differ after round trip", gz, mismatches, len(want))
		}
	}
}

func TestCompressShrinksClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tb := clusteredTable(rng, 2000)
	data, err := Compress(tb, Params{K: 2, Widths: []float64{1, 1, 0}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if raw := tb.RawSizeBytes(); len(data) >= raw {
		t.Errorf("fascicle output %d B >= raw %d B on highly clustered data", len(data), raw)
	}
}

func TestDecompressRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tb := clusteredTable(rng, 100)
	data, err := Compress(tb, Params{K: 2, Widths: []float64{1, 1, 0}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(nil); err == nil {
		t.Error("Decompress accepted empty input")
	}
	if _, err := Decompress(data[:len(data)/2]); err == nil {
		t.Error("Decompress accepted truncated input")
	}
	bad := append([]byte(nil), data...)
	bad[2] ^= 0x55
	if _, err := Decompress(bad); err == nil {
		t.Error("Decompress accepted corrupted magic")
	}
}

func TestMaxFasciclesRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tb := clusteredTable(rng, 300)
	c, err := Cluster(tb, Params{K: 2, MaxFascicles: 1, Widths: []float64{1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fascicles) > 1 {
		t.Errorf("got %d fascicles, cap was 1", len(c.Fascicles))
	}
}

func TestMinSizeRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tb := clusteredTable(rng, 300)
	c, err := Cluster(tb, Params{K: 2, MinSize: 50, Widths: []float64{1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Fascicles {
		if len(c.Fascicles[i].Rows) < 50 {
			t.Errorf("fascicle %d has %d rows, MinSize 50", i, len(c.Fascicles[i].Rows))
		}
	}
}

func TestClampWindow(t *testing.T) {
	// Seed below the split: window clamps from above.
	lo, hi := clampWindow(5, 3, 9, []float64{7})
	if !floats.SameBits(lo, 3) || !floats.SameBits(hi, 7) {
		t.Errorf("clampWindow = [%g,%g], want [3,7]", lo, hi)
	}
	// Seed above the split: lo must end up strictly greater than 7.
	lo, hi = clampWindow(8, 5, 11, []float64{7})
	if !(lo > 7) || !floats.SameBits(hi, 11) {
		t.Errorf("clampWindow = [%g,%g], want (7,11]", lo, hi)
	}
	// Seed exactly on the split is on the "≤ v" side.
	lo, hi = clampWindow(7, 5, 9, []float64{7})
	if !floats.SameBits(lo, 5) || !floats.SameBits(hi, 7) {
		t.Errorf("clampWindow = [%g,%g], want [5,7]", lo, hi)
	}
	// No splits: unchanged.
	lo, hi = clampWindow(5, 1, 9, nil)
	if !floats.SameBits(lo, 1) || !floats.SameBits(hi, 9) {
		t.Errorf("clampWindow = [%g,%g], want [1,9]", lo, hi)
	}
}

func TestColIndexRangeQueries(t *testing.T) {
	tb := paperTable(t)
	idx := buildIndex(tb)
	// Salary column: values 15k..110k.
	if got := idx[1].countRange(50000, 90000); got != 4 { // 50,76,80,90 (k)
		t.Errorf("countRange = %d, want 4", got)
	}
	// unassigned lists the window's rows that no fascicle holds yet, the
	// candidates growth scans.
	unassigned := func(lo, hi float64, assigned []bool) []int {
		i, j := idx[1].window(lo, hi)
		out := make([]int, 0, j-i)
		for _, r := range idx[1].sortedRows[i:j] {
			if !assigned[r] {
				out = append(out, r)
			}
		}
		return out
	}
	assigned := make([]bool, tb.NumRows())
	rows := unassigned(50000, 90000, assigned)
	if len(rows) != 4 {
		t.Errorf("window rows = %v, want 4 rows", rows)
	}
	assigned[4] = true // salary 50,000
	rows = unassigned(50000, 90000, assigned)
	if len(rows) != 3 {
		t.Errorf("window rows with assignment = %v, want 3 rows", rows)
	}
	// Categorical buckets.
	if got := len(idx[3].buckets[tb.Col(3).Codes[0]]); got != 5 { // "good"
		t.Errorf("bucket size = %d, want 5", got)
	}
}

func TestSameSide(t *testing.T) {
	if !sameSide(1, 2, []float64{5}) {
		t.Error("1 and 2 are both below 5")
	}
	if sameSide(4, 6, []float64{5}) {
		t.Error("4 and 6 straddle 5")
	}
	if !sameSide(4, 6, nil) {
		t.Error("no splits means always same side")
	}
	// Boundary: v <= split is the left side.
	if sameSide(5, 5.1, []float64{5}) {
		t.Error("5 (left) and 5.1 (right) straddle the split at 5")
	}
}

// --- reference implementation ---------------------------------------------
//
// refClusterContext is the direct form of the clustering: a stably
// sorted index per numeric column, a candidate slice extracted from the
// sparsest chosen window, and fresh allocations for every seed.
// TestClusterMatchesReference holds ClusterContext to exactly its output.

type refColIndex struct {
	sortedVals []float64
	sortedRows []int
	buckets    map[int32][]int
}

func refBuildIndex(t *table.Table) []refColIndex {
	idx := make([]refColIndex, t.NumCols())
	for a := 0; a < t.NumCols(); a++ {
		col := t.Col(a)
		if col.Kind == table.Numeric {
			order := make([]int, len(col.Floats))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(i, j int) bool {
				return col.Floats[order[i]] < col.Floats[order[j]]
			})
			vals := make([]float64, len(order))
			for i, r := range order {
				vals[i] = col.Floats[r]
			}
			idx[a] = refColIndex{sortedVals: vals, sortedRows: order}
			continue
		}
		buckets := make(map[int32][]int, len(col.Dict))
		for r, c := range col.Codes {
			buckets[c] = append(buckets[c], r)
		}
		idx[a] = refColIndex{buckets: buckets}
	}
	return idx
}

func (ci *refColIndex) countRange(lo, hi float64) int {
	a := sort.SearchFloat64s(ci.sortedVals, lo)
	b := sort.Search(len(ci.sortedVals), func(i int) bool { return ci.sortedVals[i] > hi })
	return b - a
}

func (ci *refColIndex) rowsInRange(lo, hi float64, assigned []bool, out []int) []int {
	a := sort.SearchFloat64s(ci.sortedVals, lo)
	b := sort.Search(len(ci.sortedVals), func(i int) bool { return ci.sortedVals[i] > hi })
	for i := a; i < b; i++ {
		if r := ci.sortedRows[i]; !assigned[r] {
			out = append(out, r)
		}
	}
	return out
}

type refAttrMatch struct {
	attr  int
	count int
	lo    float64
	hi    float64
	isCat bool
	seedC int32
}

func refClusterContext(t *table.Table, p Params) (*Clustering, error) {
	p, err := p.withDefaults(t)
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	idx := refBuildIndex(t)
	assigned := make([]bool, n)
	fascicles := make([]Fascicle, 0, p.MaxFascicles)
	maxTries := 4*p.MaxFascicles + 64
	seed, tries := 0, 0
	for len(fascicles) < p.MaxFascicles && tries < maxTries {
		for seed < n && assigned[seed] {
			seed++
		}
		if seed >= n {
			break
		}
		tries++
		f, ok := refGrowFascicle(t, p, idx, seed, assigned)
		if !ok {
			seed++
			continue
		}
		for _, r := range f.Rows {
			assigned[r] = true
		}
		fascicles = append(fascicles, f)
	}
	free := 0
	for _, done := range assigned {
		if !done {
			free++
		}
	}
	leftover := make([]int, 0, free)
	for r := 0; r < n; r++ {
		if !assigned[r] {
			leftover = append(leftover, r)
		}
	}
	return &Clustering{Fascicles: fascicles, Leftover: leftover, params: p}, nil
}

func refGrowFascicle(t *table.Table, p Params, idx []refColIndex, seed int, assigned []bool) (Fascicle, bool) {
	ncols := t.NumCols()
	matches := make([]refAttrMatch, 0, ncols)
	for a := 0; a < ncols; a++ {
		col := t.Col(a)
		am := refAttrMatch{attr: a}
		if col.Kind == table.Numeric {
			s, w := t.Float(seed, a), p.Widths[a]
			splits := splitsFor(p, a)
			am.count = -1
			for _, anchor := range [3][2]float64{{s - 2*w, s}, {s - w, s + w}, {s, s + 2*w}} {
				lo, hi := clampWindow(s, anchor[0], anchor[1], splits)
				if count := idx[a].countRange(lo, hi); count > am.count {
					am.count = count
					am.lo, am.hi = lo, hi
				}
			}
		} else {
			am.isCat = true
			am.seedC = col.Codes[seed]
			am.count = len(idx[a].buckets[am.seedC])
		}
		matches = append(matches, am)
	}
	if len(matches) < p.K {
		return Fascicle{}, false
	}
	sort.SliceStable(matches, func(i, j int) bool {
		return matches[i].count > matches[j].count
	})
	chosen := matches[:p.K]
	sparse := chosen[0]
	for _, am := range chosen[1:] {
		if am.count < sparse.count {
			sparse = am
		}
	}
	var cands []int
	if sparse.isCat {
		bucket := idx[sparse.attr].buckets[sparse.seedC]
		cands = make([]int, 0, len(bucket))
		for _, r := range bucket {
			if !assigned[r] {
				cands = append(cands, r)
			}
		}
	} else {
		cands = idx[sparse.attr].rowsInRange(sparse.lo, sparse.hi, assigned, nil)
	}
	rows := cands[:0]
	for _, r := range cands {
		ok := true
		for _, am := range chosen {
			if am.attr == sparse.attr {
				continue
			}
			if am.isCat {
				if t.Code(r, am.attr) != am.seedC {
					ok = false
					break
				}
			} else if v := t.Float(r, am.attr); v < am.lo || v > am.hi {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, r)
		}
	}
	if len(rows) < p.MinSize {
		return Fascicle{}, false
	}
	sort.Ints(rows)
	sort.Slice(chosen, func(i, j int) bool { return chosen[i].attr < chosen[j].attr })
	reps := make([]float64, len(chosen))
	for ci, am := range chosen {
		if am.isCat {
			continue
		}
		col := t.Col(am.attr)
		counts := make(map[float64]int, 16)
		for _, r := range rows {
			counts[col.Floats[r]]++
		}
		bestV, bestC := math.Inf(1), -1
		for v, c := range counts {
			if c > bestC || (c == bestC && v < bestV) {
				bestV, bestC = v, c
			}
		}
		reps[ci] = floats.F32(bestV)
	}
	valid := rows[:0]
	for _, r := range rows {
		ok := true
		for ci, am := range chosen {
			if am.isCat {
				continue
			}
			v := t.Float(r, am.attr)
			if math.Abs(reps[ci]-v) > p.Widths[am.attr] ||
				!sameSide(reps[ci], v, splitsFor(p, am.attr)) {
				ok = false
				break
			}
		}
		if ok {
			valid = append(valid, r)
		}
	}
	if len(valid) < p.MinSize {
		return Fascicle{}, false
	}
	f := Fascicle{Rows: valid}
	for ci, am := range chosen {
		f.CompactAttrs = append(f.CompactAttrs, am.attr)
		if am.isCat {
			f.NumReps = append(f.NumReps, 0)
			f.CatReps = append(f.CatReps, am.seedC)
		} else {
			f.NumReps = append(f.NumReps, reps[ci])
			f.CatReps = append(f.CatReps, 0)
		}
	}
	return f, true
}

// --- differential test ------------------------------------------------------

// differentialTables returns the seeded tables TestClusterMatchesReference
// clusters: every datagen family at 8000 rows, plus tables with a constant
// numeric column, with categorical attributes only, with heavily
// duplicated values (signed zeros included, which compare equal), and
// with no rows.
func differentialTables(t *testing.T) map[string]*table.Table {
	t.Helper()
	out := map[string]*table.Table{
		"cdr":    datagen.CDR(8000, 7),
		"census": datagen.Census(8000, 7),
		"corel":  datagen.Corel(8000, 7),
		"forest": datagen.ForestCover(8000, 7),
	}
	rng := rand.New(rand.NewSource(11))

	b := table.MustBuilder(table.Schema{
		{Name: "c", Kind: table.Numeric},
		{Name: "x", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
	})
	for i := 0; i < 3000; i++ {
		b.MustAppendRow(42.0, rng.NormFloat64()*10, "g"+strconv.Itoa(rng.Intn(4)))
	}
	out["constant"] = b.MustBuild()

	b = table.MustBuilder(table.Schema{
		{Name: "a", Kind: table.Categorical},
		{Name: "b", Kind: table.Categorical},
		{Name: "c", Kind: table.Categorical},
	})
	for i := 0; i < 3000; i++ {
		a := rng.Intn(5)
		b.MustAppendRow("a"+strconv.Itoa(a), "b"+strconv.Itoa((a+rng.Intn(2))%5), "c"+strconv.Itoa(rng.Intn(7)))
	}
	out["categorical"] = b.MustBuild()

	b = table.MustBuilder(table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "y", Kind: table.Numeric},
		{Name: "z", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
	})
	vals := []float64{-1e6, -2.5, math.Copysign(0, -1), 0, 1, 2, 3}
	for i := 0; i < 3000; i++ {
		b.MustAppendRow(vals[rng.Intn(len(vals))], vals[1+rng.Intn(3)], float64(rng.Intn(3)), "g"+strconv.Itoa(rng.Intn(2)))
	}
	out["duplicates"] = b.MustBuild()
	out["empty"] = table.MustBuilder(table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
	}).MustBuild()
	return out
}

// differentialParams derives 1%-of-range widths and, when withSplits is
// set, split values at the column's quartiles, the way the RowAggregator
// passes CaRT thresholds.
func differentialParams(tb *table.Table, withSplits bool, maxFascicles int) Params {
	p := Params{Widths: make([]float64, tb.NumCols()), MaxFascicles: maxFascicles}
	if withSplits {
		p.SplitValues = make([][]float64, tb.NumCols())
	}
	for a := 0; a < tb.NumCols(); a++ {
		col := tb.Col(a)
		if col.Kind != table.Numeric {
			continue
		}
		p.Widths[a] = 0.01 * col.Range()
		if withSplits && len(col.Floats) > 0 {
			sorted := append([]float64(nil), col.Floats...)
			sort.Float64s(sorted)
			n := len(sorted)
			p.SplitValues[a] = []float64{sorted[n/4], sorted[n/2], sorted[3*n/4]}
		}
	}
	return p
}

// TestClusterMatchesReference holds ClusterContext to the exact output of
// the reference implementation: same fascicles in the same order, same
// members, compact attributes and representatives, same leftovers.
func TestClusterMatchesReference(t *testing.T) {
	tables := differentialTables(t)
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	capped := false
	for _, name := range names {
		tb := tables[name]
		for _, withSplits := range []bool{false, true} {
			for _, maxF := range []int{5, 500} {
				t.Run(name+"/splits="+strconv.FormatBool(withSplits)+"/max="+strconv.Itoa(maxF), func(t *testing.T) {
					p := differentialParams(tb, withSplits, maxF)
					want, err := refClusterContext(tb, p)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ClusterContext(context.Background(), tb, p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("clustering differs from the reference: %d fascicles and %d leftovers, want %d and %d",
							len(got.Fascicles), len(got.Leftover), len(want.Fascicles), len(want.Leftover))
					}
					if maxF == 500 && len(got.Fascicles) == maxF {
						capped = true
					}
				})
			}
		}
	}
	if !capped {
		t.Error("no table reached the 500-fascicle cap; the differential misses the capped path")
	}
}
