// Package fascicle implements row-wise semantic compression with fascicles
// (Jagadish, Madar, Ng, VLDB 1999), the technique SPARTAN uses in its
// RowAggregator component (paper §3.4) and compares against as a baseline
// (paper §4).
//
// A fascicle is a set of rows that agree, within a compactness tolerance,
// on k "compact" attributes: a numeric attribute is compact in a row set
// when its value range has width at most 2e (so the range midpoint is
// within e of every member); a categorical attribute is compact when all
// rows share one value. Compact attributes are stored once per fascicle.
//
// For SPARTAN's RowAggregator the paper strengthens compactness: a compact
// numeric attribute's range [x', x”] must not straddle any CaRT split
// value v (either x' > v or x” ≤ v), which guarantees the quantized
// predictor values traverse exactly the same tree paths as the originals.
// This package implements that rule via the SplitValues option.
//
// The lattice search of the original Single-k algorithm is replaced by a
// deterministic seeded greedy growth (DESIGN.md §4): take the first
// unassigned row as seed, find for every attribute the rows that fit a
// compactness window around the seed, keep the k best-populated
// attributes, and emit the rows matching all k.
package fascicle

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/floats"
	"repro/internal/table"
)

// Params configures fascicle computation, mirroring the knobs of the
// Single-k algorithm.
type Params struct {
	// K is the number of compact attributes per fascicle. Zero defaults to
	// two-thirds of the attribute count (the paper's RowAggregator
	// setting).
	K int
	// MaxFascicles bounds the number of fascicles (the paper's P,
	// default 500).
	MaxFascicles int
	// MinSize is the minimum fascicle row count (the paper's m); smaller
	// candidate groups stay uncompressed. Default max(2, 0.01% of rows).
	MinSize int
	// Widths holds the per-attribute compactness tolerance: for a numeric
	// attribute i the maximum allowed value range is 2·Widths[i] (the paper
	// sets the compactness tolerance to twice the error tolerance, i.e.
	// Widths[i] = eᵢ). Categorical attributes are compact only when equal,
	// regardless of width; their entry must be 0.
	Widths []float64
	// SplitValues optionally lists, per attribute, the CaRT split values
	// that compact ranges must not straddle (RowAggregator mode).
	SplitValues [][]float64
}

func (p Params) withDefaults(t *table.Table) (Params, error) {
	if len(p.Widths) != t.NumCols() {
		return p, fmt.Errorf("fascicle: %d widths for %d attributes", len(p.Widths), t.NumCols())
	}
	if p.K <= 0 {
		p.K = 2 * t.NumCols() / 3
		if p.K < 1 {
			p.K = 1
		}
	}
	if p.K > t.NumCols() {
		p.K = t.NumCols()
	}
	if p.MaxFascicles <= 0 {
		p.MaxFascicles = 500
	}
	if p.MinSize <= 0 {
		p.MinSize = t.NumRows() / 10000
		if p.MinSize < 2 {
			p.MinSize = 2
		}
	}
	if p.SplitValues != nil && len(p.SplitValues) != t.NumCols() {
		return p, fmt.Errorf("fascicle: %d split-value lists for %d attributes", len(p.SplitValues), t.NumCols())
	}
	return p, nil
}

// Fascicle is one row cluster: Rows lists the member row indices (in
// increasing order), CompactAttrs the attributes stored once, and Reps the
// representative value for each compact attribute (numeric midpoint or
// categorical code, by attribute kind).
type Fascicle struct {
	Rows         []int
	CompactAttrs []int
	NumReps      []float64 // representative per compact numeric attribute
	CatReps      []int32   // representative per compact categorical attribute
}

// repFor returns the representative for compact attribute position j.
func (f *Fascicle) repFor(t *table.Table, j int) (float64, int32) {
	attr := f.CompactAttrs[j]
	if t.Attr(attr).Kind == table.Numeric {
		return f.NumReps[j], 0
	}
	return 0, f.CatReps[j]
}

// Clustering is the result of fascicle detection over a table.
type Clustering struct {
	Fascicles []Fascicle
	// Leftover lists rows assigned to no fascicle; they are stored
	// verbatim.
	Leftover []int
	params   Params
}

// Cluster detects fascicles greedily. The result is deterministic for a
// given table and parameters. Building the index costs one sort per
// numeric attribute. Each seed then tries one growth: windows are counted
// by binary search on the sorted indexes, and the rows of the sparsest
// chosen window — including rows earlier fascicles already took — are
// scanned against the other chosen windows. Tries, failed ones included,
// are capped at 4·MaxFascicles+64, so the scanning costs at most that many
// window scans.
func Cluster(t *table.Table, p Params) (*Clustering, error) {
	return ClusterContext(context.Background(), t, p)
}

// ClusterContext is Cluster with cancellation: ctx is checked before each
// seed's growth attempt, so a cancel abandons the clustering within one
// fascicle and returns the wrapped context error.
func ClusterContext(ctx context.Context, t *table.Table, p Params) (*Clustering, error) {
	p, err := p.withDefaults(t)
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	g := newGrower(t, p)
	fascicles := make([]Fascicle, 0, p.MaxFascicles)

	// Seeds that fail to grow are skipped permanently; cap total attempts
	// so degenerate tables (nothing clusters) stay linear.
	maxTries := 4*p.MaxFascicles + 64
	seed, tries := 0, 0
	for len(fascicles) < p.MaxFascicles && tries < maxTries {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fascicle: clustering cancelled: %w", err)
		}
		for seed < n && g.assigned[seed] {
			seed++
		}
		if seed >= n {
			break
		}
		tries++
		f, ok := g.grow(seed)
		if !ok {
			seed++ // this seed stays a leftover unless a later fascicle absorbs it
			continue
		}
		for _, r := range f.Rows {
			g.assigned[r] = true
		}
		fascicles = append(fascicles, f)
	}
	free := 0
	for _, done := range g.assigned {
		if !done {
			free++
		}
	}
	leftover := make([]int, 0, free)
	for r := 0; r < n; r++ {
		if !g.assigned[r] {
			leftover = append(leftover, r)
		}
	}
	return &Clustering{Fascicles: fascicles, Leftover: leftover, params: p}, nil
}

// colIndex accelerates window membership queries.
type colIndex struct {
	// numeric: rows sorted by (value, row).
	sortedVals []float64
	sortedRows []int
	// categorical: rows per code, in increasing row order.
	buckets [][]int
}

func buildIndex(t *table.Table) []colIndex {
	idx := make([]colIndex, t.NumCols())
	var rs radixSorter
	for a := 0; a < t.NumCols(); a++ {
		col := t.Col(a)
		if col.Kind == table.Numeric {
			rows := rs.order(col.Floats)
			vals := make([]float64, len(rows))
			for i, r := range rows {
				vals[i] = col.Floats[r]
			}
			idx[a] = colIndex{sortedVals: vals, sortedRows: rows}
			continue
		}
		// Size every bucket first, so all of them share one backing array.
		buckets := make([][]int, len(col.Dict))
		sizes := make([]int, len(col.Dict))
		for _, c := range col.Codes {
			sizes[c]++
		}
		backing, off := make([]int, len(col.Codes)), 0
		for c, k := range sizes {
			buckets[c] = backing[off : off : off+k]
			off += k
		}
		for r, c := range col.Codes {
			buckets[c] = append(buckets[c], r)
		}
		idx[a] = colIndex{buckets: buckets}
	}
	return idx
}

// radixSorter orders rows by value with a least-significant-byte-first
// radix sort, reusing its buffers from one column to the next.
type radixSorter struct {
	keys, keys2 []uint64
	rows2       []int
}

// order returns the rows of vals sorted by value, equal values in row
// order: exactly the stable sort by value. Each value maps to a key whose
// unsigned order is the float order, with -0 and +0 on one key since they
// compare equal; tables hold no NaN. A pass whose byte is the same in
// every key is skipped. The returned slice belongs to the caller: the
// sorter keeps only the other row buffer.
func (s *radixSorter) order(vals []float64) []int {
	n := len(vals)
	if n == 0 {
		return nil
	}
	keys, keys2 := slices.Grow(s.keys[:0], n)[:n], slices.Grow(s.keys2[:0], n)[:n]
	rows, rows2 := make([]int, n), slices.Grow(s.rows2[:0], n)[:n]
	for r, v := range vals {
		b := math.Float64bits(v)
		if b == 1<<63 { // -0 sorts with +0
			b = 0
		}
		if b>>63 != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		keys[r], rows[r] = b, r
	}
	for shift := 0; shift < 64; shift += 8 {
		var pos [256]int
		for _, k := range keys {
			pos[byte(k>>shift)]++
		}
		if pos[byte(keys[0]>>shift)] == n {
			continue
		}
		sum := 0
		for i, c := range pos {
			pos[i] = sum
			sum += c
		}
		for i, k := range keys {
			d := &pos[byte(k>>shift)]
			keys2[*d], rows2[*d] = k, rows[i]
			*d++
		}
		keys, keys2 = keys2, keys
		rows, rows2 = rows2, rows
	}
	s.keys, s.keys2, s.rows2 = keys, keys2, rows2
	return rows
}

// window returns the positions [i, j) of the sorted index whose values
// lie in [lo, hi].
func (ci *colIndex) window(lo, hi float64) (int, int) {
	vals := ci.sortedVals
	i, end := 0, len(vals)
	for i < end { // first value >= lo
		if m := int(uint(i+end) >> 1); vals[m] < lo {
			i = m + 1
		} else {
			end = m
		}
	}
	j, end := i, len(vals)
	for j < end { // first value > hi
		if m := int(uint(j+end) >> 1); vals[m] <= hi {
			j = m + 1
		} else {
			end = m
		}
	}
	return i, j
}

// countRange returns the number of rows with value in [lo, hi].
func (ci *colIndex) countRange(lo, hi float64) int {
	i, j := ci.window(lo, hi)
	return j - i
}

// attrMatch records, for one attribute, the compactness window around the
// current seed and an (index-estimated) population count.
type attrMatch struct {
	count int     // estimated rows in window (may include assigned rows)
	lo    float64 // numeric window bounds
	hi    float64
	isCat bool
	seedC int32 // seed's code (categorical attributes)
}

// filter is a chosen window as the candidate scan tests it: a numeric
// range over floats, or the seed's code over codes.
type filter struct {
	floats []float64
	codes  []int32
	lo, hi float64
	seedC  int32
}

// grower holds one clustering's index, assignment and the scratch buffers
// every growth attempt reuses. A Fascicle it returns owns its slices; none
// of them alias the scratch.
type grower struct {
	t        *table.Table
	p        Params
	idx      []colIndex
	assigned []bool

	matches []attrMatch // by attribute
	top     []int       // attributes by estimated population
	filters []filter    // chosen windows other than the sparsest
	rows    []int
	reps    []float64
	counts  map[float64]int
}

func newGrower(t *table.Table, p Params) *grower {
	return &grower{
		t:        t,
		p:        p,
		idx:      buildIndex(t),
		assigned: make([]bool, t.NumRows()),
		matches:  make([]attrMatch, 0, t.NumCols()),
		top:      make([]int, 0, t.NumCols()),
		filters:  make([]filter, 0, p.K),
		reps:     make([]float64, p.K),
		counts:   make(map[float64]int, 16),
	}
}

// grow builds the candidate fascicle seeded at row seed and reports
// whether it meets the minimum size.
func (g *grower) grow(seed int) (Fascicle, bool) {
	t, p := g.t, g.p
	matches := g.matches[:0]
	for a := 0; a < t.NumCols(); a++ {
		col := t.Col(a)
		var am attrMatch
		if col.Kind == table.Numeric {
			// The compactness window may sit anywhere as long as it has
			// width ≤ 2·w and contains the seed; try the three natural
			// anchorings and keep the most populated one. Counts come from
			// the sorted index and may include already-assigned rows — a
			// deliberate approximation that keeps scoring O(log n).
			s, w := col.Floats[seed], p.Widths[a]
			splits := splitsFor(p, a)
			am.count = -1
			for _, anchor := range [3][2]float64{{s - 2*w, s}, {s - w, s + w}, {s, s + 2*w}} {
				lo, hi := clampWindow(s, anchor[0], anchor[1], splits)
				if count := g.idx[a].countRange(lo, hi); count > am.count {
					am.count = count
					am.lo, am.hi = lo, hi
				}
			}
		} else {
			am.isCat = true
			am.seedC = col.Codes[seed]
			am.count = len(g.idx[a].buckets[am.seedC])
		}
		matches = append(matches, am)
	}
	g.matches = matches
	if len(matches) < p.K {
		return Fascicle{}, false
	}
	// Keep the K attributes with the highest estimated population, ties
	// to the lower attribute.
	top := g.top[:0]
	for a := range matches {
		top = append(top, a)
	}
	slices.SortFunc(top, func(x, y int) int {
		if c := matches[y].count - matches[x].count; c != 0 {
			return c
		}
		return x - y
	})
	g.top = top
	top = top[:p.K]

	// Scan the sparsest chosen window and test every unassigned row
	// against the other chosen windows, most selective first: the
	// conjunction does not depend on the order.
	sparse := top[len(top)-1]
	filters := g.filters[:0]
	for i := len(top) - 2; i >= 0; i-- {
		col, am := t.Col(top[i]), &matches[top[i]]
		filters = append(filters, filter{floats: col.Floats, codes: col.Codes, lo: am.lo, hi: am.hi, seedC: am.seedC})
	}
	g.filters = filters
	var window []int
	if sp := &matches[sparse]; sp.isCat {
		window = g.idx[sparse].buckets[sp.seedC]
	} else {
		ci := &g.idx[sparse]
		i, j := ci.window(sp.lo, sp.hi)
		window = ci.sortedRows[i:j]
	}
	rows := g.rows[:0]
	for _, r := range window {
		if g.assigned[r] || !inWindows(filters, r) {
			continue
		}
		rows = append(rows, r)
	}
	g.rows = rows
	if len(rows) < p.MinSize {
		return Fascicle{}, false
	}
	slices.Sort(rows)
	slices.Sort(top) // compact attributes in attribute order

	// Representatives: the most frequent member value (ties broken low).
	// Using an existing domain value — rather than the range midpoint —
	// means quantization never introduces new distinct values, so the
	// downstream dictionary coder only ever benefits. Members farther than
	// the width from the representative are dropped below, keeping the
	// error bound valid for every member by construction. (Values are
	// float32-exact already, so no wire-format rounding applies.)
	reps := g.reps
	for ci, a := range top {
		if matches[a].isCat {
			continue
		}
		vals, counts := t.Col(a).Floats, g.counts
		clear(counts)
		for _, r := range rows {
			counts[vals[r]]++
		}
		bestV, bestC := math.Inf(1), -1
		for v, c := range counts {
			if c > bestC || (c == bestC && v < bestV) {
				bestV, bestC = v, c
			}
		}
		// Values built through table.Builder are float32-exact already;
		// rounding here guards tables assembled via table.New from raw
		// float64 columns (the member-validation pass below drops any row
		// the rounding pushes out of bounds).
		reps[ci] = floats.F32(bestV)
	}
	valid := rows[:0]
	for _, r := range rows {
		ok := true
		for ci, a := range top {
			if matches[a].isCat {
				continue
			}
			v := t.Float(r, a)
			if math.Abs(reps[ci]-v) > p.Widths[a] ||
				!sameSide(reps[ci], v, splitsFor(p, a)) {
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
	f := Fascicle{
		Rows:         slices.Clone(valid),
		CompactAttrs: slices.Clone(top),
		NumReps:      make([]float64, len(top)),
		CatReps:      make([]int32, len(top)),
	}
	for ci, a := range top {
		if am := &matches[a]; am.isCat {
			f.CatReps[ci] = am.seedC
		} else {
			f.NumReps[ci] = reps[ci]
		}
	}
	return f, true
}

// inWindows reports whether row r lies in every window of fs.
func inWindows(fs []filter, r int) bool {
	for i := range fs {
		f := &fs[i]
		if f.floats == nil {
			if f.codes[r] != f.seedC {
				return false
			}
		} else if v := f.floats[r]; v < f.lo || v > f.hi {
			return false
		}
	}
	return true
}

func splitsFor(p Params, attr int) []float64 {
	if p.SplitValues == nil {
		return nil
	}
	return p.SplitValues[attr]
}

// clampWindow shrinks a candidate window [lo, hi] containing seed value s
// so it does not straddle any split value: the final range must satisfy
// lo > v or hi <= v for every split v (the paper's RowAggregator
// compactness rule). The seed always remains inside.
func clampWindow(s, lo, hi float64, splits []float64) (float64, float64) {
	for _, v := range splits {
		if s <= v {
			// Seed on the "≤ v" side: clamp hi to v.
			if hi > v {
				hi = v
			}
		} else if lo <= v {
			// Seed on the "> v" side: clamp lo just above v.
			lo = math.Nextafter(v, math.Inf(1))
		}
	}
	return lo, hi
}

// Quantize returns a copy of the table with every compact attribute value
// replaced by its fascicle representative, preserving row order. Each
// changed numeric value moves by at most the attribute's width; categorical
// values never change (their compactness requires equality). This is the
// in-place form used by SPARTAN's RowAggregator: the quantized column has
// far fewer distinct values, which the downstream entropy coder exploits.
//
// Representatives are float32-exact and validated against every member at
// construction time, so the guarantees hold bit-exactly after the table
// travels through the float32 wire format.
func (c *Clustering) Quantize(t *table.Table) *table.Table {
	out := t.Clone()
	for fi := range c.Fascicles {
		f := &c.Fascicles[fi]
		for j, attr := range f.CompactAttrs {
			col := out.Col(attr)
			num, cat := f.repFor(t, j)
			for _, r := range f.Rows {
				if col.Kind == table.Numeric {
					col.Floats[r] = num
				} else {
					col.Codes[r] = cat
				}
			}
		}
	}
	return out
}

// sameSide reports whether a and b fall on the same side of every split
// value.
func sameSide(a, b float64, splits []float64) bool {
	for _, v := range splits {
		if (a <= v) != (b <= v) {
			return false
		}
	}
	return true
}

// CompressedValueCount returns the number of values the clustering stores,
// the unit the paper uses in Example 2.1: one per compact attribute per
// fascicle, plus one per non-compact attribute per member row, plus full
// rows for leftovers.
func (c *Clustering) CompressedValueCount(t *table.Table) int {
	total := len(c.Leftover) * t.NumCols()
	for i := range c.Fascicles {
		f := &c.Fascicles[i]
		total += len(f.CompactAttrs)
		total += (t.NumCols() - len(f.CompactAttrs)) * len(f.Rows)
	}
	return total
}
