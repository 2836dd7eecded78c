// Package stats provides the statistical substrate for SPARTAN's
// DependencyFinder: entropy, (conditional) mutual information, chi-square
// tests over contingency tables, and equi-depth discretization of numeric
// attributes. All quantities operate on integer-coded columns so the
// Bayesian-network builder can treat numeric and categorical attributes
// uniformly after discretization.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Log2 of x with 0·log0 = 0 convention handled by callers.
func log2(x float64) float64 { return math.Log2(x) }

// Entropy returns the Shannon entropy (bits) of an integer-coded vector
// whose values lie in [0, card).
func Entropy(codes []int, card int) float64 {
	if len(codes) == 0 {
		return 0
	}
	counts := make([]int, card)
	for _, c := range codes {
		counts[c]++
	}
	n := float64(len(codes))
	h := 0.0
	for _, cnt := range counts {
		if cnt == 0 {
			continue
		}
		p := float64(cnt) / n
		h -= p * log2(p)
	}
	return h
}

// MutualInformation returns I(X;Y) in bits for two equal-length
// integer-coded vectors with cardinalities cx and cy.
func MutualInformation(x, y []int, cx, cy int) float64 {
	var s Scratch
	return s.MutualInformation(x, y, cx, cy)
}

// Scratch holds the count buffers of MutualInformation,
// ConditionalMutualInformation and CompositeCodes, so a caller running
// many tests over the same sample allocates them once. The zero value is
// ready to use; a Scratch must not be used concurrently.
type Scratch struct {
	joint, mx, my []int // count buffers; all zero between calls
	start, order  []int // ConditionalMutualInformation's counting sort
	codes         []int // CompositeCodes' result, reused by the next call
	table         []int32
	index         map[uint64]int32
}

// grow returns buf resized to n, reusing its storage when large enough.
// Fresh storage is zeroed, so buffers kept zero between calls stay zero.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// MutualInformation is the package-level MutualInformation.
func (s *Scratch) MutualInformation(x, y []int, cx, cy int) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 0
	}
	s.count(x, y, cx, cy, nil)
	mi := miFromCounts(s.joint, s.mx, s.my, cx, cy, float64(len(x)))
	clear(s.joint[:cx*cy])
	clear(s.mx[:cx])
	clear(s.my[:cy])
	return mi
}

// count adds the joint and marginal counts of (x[r], y[r]) over rows, or
// over every row when rows is nil, into the zeroed count buffers.
func (s *Scratch) count(x, y []int, cx, cy int, rows []int) {
	s.joint = grow(s.joint, cx*cy)
	s.mx = grow(s.mx, cx)
	s.my = grow(s.my, cy)
	joint, mx, my := s.joint, s.mx, s.my
	if rows == nil {
		for i := range x {
			joint[x[i]*cy+y[i]]++
			mx[x[i]]++
			my[y[i]]++
		}
		return
	}
	for _, r := range rows {
		joint[x[r]*cy+y[r]]++
		mx[x[r]]++
		my[y[r]]++
	}
}

// miFromCounts is I(X;Y) in bits from joint and marginal counts over n
// rows.
func miFromCounts(joint, mx, my []int, cx, cy int, n float64) float64 {
	mi := 0.0
	for xi := 0; xi < cx; xi++ {
		if mx[xi] == 0 {
			continue
		}
		for yi := 0; yi < cy; yi++ {
			c := joint[xi*cy+yi]
			if c == 0 {
				continue
			}
			pxy := float64(c) / n
			px := float64(mx[xi]) / n
			py := float64(my[yi]) / n
			mi += pxy * log2(pxy/(px*py))
		}
	}
	if mi < 0 { // numerical noise
		mi = 0
	}
	return mi
}

// ConditionalMutualInformation returns I(X;Y|Z) in bits, where z is an
// integer-coded conditioning vector with cardinality cz. Z is typically a
// composite code built with CompositeCodes from several conditioning
// attributes. It counting-sorts the rows by stratum, then sums each
// stratum's weighted I(X;Y) in stratum-code order, so the result is the
// same float on every call.
func (s *Scratch) ConditionalMutualInformation(x, y, z []int, cx, cy, cz int) float64 {
	if len(x) != len(y) || len(x) != len(z) {
		panic(fmt.Sprintf("stats: length mismatch %d/%d/%d", len(x), len(y), len(z)))
	}
	if len(x) == 0 {
		return 0
	}
	// start[k] is where stratum k begins in order; start[cz] = len(z).
	start := grow(s.start, cz+1)
	clear(start)
	for _, zi := range z {
		start[zi+1]++
	}
	for k := 1; k <= cz; k++ {
		start[k] += start[k-1]
	}
	order := grow(s.order, len(z))
	for i, zi := range z {
		order[start[zi]] = i
		start[zi]++
	}
	// Placing the rows advanced start[k] to the end of stratum k, which is
	// the start of stratum k+1.
	s.start, s.order = start, order
	n := float64(len(x))
	cmi := 0.0
	lo := 0
	for k := 0; k < cz; k++ {
		rows := order[lo:start[k]]
		lo = start[k]
		if len(rows) == 0 {
			continue
		}
		s.count(x, y, cx, cy, rows)
		cmi += float64(len(rows)) / n * miFromCounts(s.joint, s.mx, s.my, cx, cy, float64(len(rows)))
		for _, r := range rows {
			s.joint[x[r]*cy+y[r]] = 0
			s.mx[x[r]] = 0
			s.my[y[r]] = 0
		}
	}
	return cmi
}

// CompositeCodes combines several integer-coded columns into a single code
// per row, with the combined cardinality returned; cards[j] bounds the
// values of cols[j]. Only combinations that actually occur receive codes,
// keeping the cardinality equal to the number of distinct observed tuples
// (important for CI tests on samples). Codes are assigned in order of
// first appearance. The returned codes live in s and are overwritten by
// its next CompositeCodes call.
//
// When the product of the cardinalities is at most denseKeys, each row's
// mixed-radix key indexes a flat table; this covers the discretized
// conditioning sets the network builder tests, and BenchmarkCompositeCodes
// measures it against the general path, foldCodes.
func (s *Scratch) CompositeCodes(cols [][]int, cards []int) (codes []int, card int) {
	if len(cols) == 0 {
		return nil, 1
	}
	if len(cards) != len(cols) {
		panic(fmt.Sprintf("stats: %d cardinalities for %d columns", len(cards), len(cols)))
	}
	codes = grow(s.codes, len(cols[0]))
	s.codes = codes
	if size, ok := denseSize(cards); ok {
		return codes, s.denseCodes(codes, cols, cards, size)
	}
	return codes, s.foldCodes(codes, cols, cards)
}

// denseKeys bounds the key space CompositeCodes indexes with a flat table.
const denseKeys = 1 << 16

// denseSize returns the product of cards and whether it is at most
// denseKeys.
func denseSize(cards []int) (int, bool) {
	p := 1
	for _, c := range cards {
		if c > denseKeys/max(p, 1) {
			return 0, false
		}
		p *= c
	}
	return p, true
}

// denseCodes writes each row's mixed-radix key, below size, into codes,
// then replaces it by its first-appearance code through a flat table.
func (s *Scratch) denseCodes(codes []int, cols [][]int, cards []int, size int) (card int) {
	clear(codes)
	for j, col := range cols {
		r := cards[j]
		for i, v := range col {
			codes[i] = codes[i]*r + v
		}
	}
	table := grow(s.table, size) // key -> code+1
	s.table = table
	clear(table)
	for i, k := range codes {
		c := table[k]
		if c == 0 {
			card++
			c = int32(card)
			table[k] = c
		}
		codes[i] = int(c) - 1
	}
	return card
}

// foldCodes folds the columns in one at a time: a row's code so far
// (below its row count) and its next value form the key code·cards[j]+v,
// which is recoded in first-appearance order. Distinct prefixes keep
// distinct codes in first-appearance order at every step, so the final
// codes are those of the whole tuple, and no key overflows.
func (s *Scratch) foldCodes(codes []int, cols [][]int, cards []int) (card int) {
	clear(codes)
	if s.index == nil {
		s.index = make(map[uint64]int32)
	}
	index := s.index
	for j, col := range cols {
		r := uint64(cards[j])
		for i, v := range col {
			k := uint64(codes[i])*r + uint64(v)
			c, ok := index[k]
			if !ok {
				c = int32(len(index))
				index[k] = c
			}
			codes[i] = int(c)
		}
		card = len(index)
		clear(index)
	}
	return card
}

// ChiSquare computes the chi-square statistic and degrees of freedom for
// independence of two integer-coded vectors. Rows/columns with zero
// marginals are excluded from the degrees of freedom.
func ChiSquare(x, y []int, cx, cy int) (statistic float64, dof int) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: length mismatch %d vs %d", len(x), len(y)))
	}
	joint := make([]float64, cx*cy)
	mx := make([]float64, cx)
	my := make([]float64, cy)
	for i := range x {
		joint[x[i]*cy+y[i]]++
		mx[x[i]]++
		my[y[i]]++
	}
	n := float64(len(x))
	if n == 0 {
		return 0, 0
	}
	stat := 0.0
	nzx, nzy := 0, 0
	for _, v := range mx {
		if v > 0 {
			nzx++
		}
	}
	for _, v := range my {
		if v > 0 {
			nzy++
		}
	}
	for xi := 0; xi < cx; xi++ {
		if mx[xi] == 0 {
			continue
		}
		for yi := 0; yi < cy; yi++ {
			if my[yi] == 0 {
				continue
			}
			expected := mx[xi] * my[yi] / n
			d := joint[xi*cy+yi] - expected
			stat += d * d / expected
		}
	}
	dof = (nzx - 1) * (nzy - 1)
	if dof < 0 {
		dof = 0
	}
	return stat, dof
}

// Discretizer maps numeric values into equi-depth bins. Bin boundaries are
// chosen from sorted sample quantiles; values map to the bin whose
// right-open interval contains them.
type Discretizer struct {
	// Cuts holds the right-open upper boundaries of all bins except the
	// last; a value v maps to the first bin i with v < Cuts[i], else to
	// bin len(Cuts).
	Cuts []float64
}

// NewDiscretizer builds an equi-depth discretizer with at most bins bins
// from the given values. Duplicate quantiles are merged, so the effective
// number of bins can be smaller for skewed data.
func NewDiscretizer(values []float64, bins int) *Discretizer {
	if bins < 1 {
		bins = 1
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cuts := make([]float64, 0, bins-1)
	n := len(sorted)
	for b := 1; b < bins && n > 0; b++ {
		q := sorted[b*n/bins]
		// A cut at or below the minimum would create an empty leading bin.
		if q <= sorted[0] {
			continue
		}
		if len(cuts) == 0 || q > cuts[len(cuts)-1] {
			cuts = append(cuts, q)
		}
	}
	return &Discretizer{Cuts: cuts}
}

// Bins returns the number of bins.
func (d *Discretizer) Bins() int { return len(d.Cuts) + 1 }

// Code maps a value to its bin index.
func (d *Discretizer) Code(v float64) int {
	// Binary search the first cut greater than v.
	lo, hi := 0, len(d.Cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < d.Cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// CodeAll maps a whole slice.
func (d *Discretizer) CodeAll(values []float64) []int {
	out := make([]int, len(values))
	for i, v := range values {
		out[i] = d.Code(v)
	}
	return out
}

// Mean returns the arithmetic mean of values (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Variance returns the population variance of values.
func Variance(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := Mean(values)
	s := 0.0
	for _, v := range values {
		d := v - m
		s += d * d
	}
	return s / float64(len(values))
}
