package cart

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/floats"
	"repro/internal/table"
)

// regression tree construction (paper §3.3, numeric targets).
//
// A leaf predicting value p satisfies the tolerance for every row whose
// target value lies in [p-tol, p+tol]; the remaining rows are outliers. The
// best constant for a leaf is therefore the center of the length-2·tol
// window covering the most rows (computed by a sliding window over the
// sorted leaf values). Split selection minimizes the sum of squared errors
// (the classic CART criterion) which is an efficient proxy for narrowing
// leaf windows; storage-cost pruning then decides whether a split is kept.

// leafStatsRegression returns the best constant prediction, the number of
// rows it fails to cover, and whether the leaf is "acceptable" (no
// outliers), for the given rows.
func (b *treeBuilder) leafStatsRegression(rows []int) (pred float64, outliers int) {
	if len(rows) == 0 {
		return 0, 0
	}
	target := b.t.Col(b.target).Floats
	b.vals = grow(b.vals, len(rows))
	vals := b.vals
	for i, r := range rows {
		vals[i] = target[r]
	}
	sort.Float64s(vals)
	// Sliding window of width 2·tol maximizing coverage.
	bestLo, bestCount := 0, 1
	lo := 0
	for hi := 0; hi < len(vals); hi++ {
		for vals[hi]-vals[lo] > 2*b.tol {
			lo++
		}
		if hi-lo+1 > bestCount {
			bestCount = hi - lo + 1
			bestLo = lo
		}
	}
	hiIdx := bestLo + bestCount - 1
	// Predictions are rounded through float32 (their wire format) here, so
	// the outlier scan sees exactly the prediction the decompressor will
	// compute. Rows the rounding pushes past the bound simply become
	// outliers.
	pred = floats.F32((vals[bestLo] + vals[hiIdx]) / 2)
	return pred, len(vals) - bestCount
}

// buildRegression grows (and under PruneIntegrated, prunes) a subtree for
// the given sample rows, returning the subtree and its estimated storage
// cost in bits.
func (b *treeBuilder) buildRegression(ctx context.Context, rows []int, depth int) (*Node, float64) {
	if b.cancelled(ctx) {
		return &Node{Leaf: true}, 0
	}
	pred, outliers := b.leafStatsRegression(rows)
	leafCost := b.cm.LeafBits(b.target) + b.outlierCost(outliers)

	// Stop conditions: acceptable leaf (paper's optimization 2), depth or
	// size bounds.
	if outliers == 0 || depth >= b.cfg.MaxDepth || len(rows) < 2*b.cfg.MinLeafRows {
		return &Node{Leaf: true, NumValue: pred}, leafCost
	}
	// Integrated pruning: if no expansion can beat the leaf, stop now.
	if b.cfg.Prune == PruneIntegrated && leafCost <= b.leafFloor() {
		return &Node{Leaf: true, NumValue: pred}, leafCost
	}

	split, ok := b.bestSplitSSE(rows, b.targetFloats(rows))
	if !ok {
		return &Node{Leaf: true, NumValue: pred}, leafCost
	}
	leftRows, rightRows := b.partition(rows, split)
	if len(leftRows) < b.cfg.MinLeafRows || len(rightRows) < b.cfg.MinLeafRows {
		return &Node{Leaf: true, NumValue: pred}, leafCost
	}
	leftNode, leftCost := b.buildRegression(ctx, leftRows, depth+1)
	rightNode, rightCost := b.buildRegression(ctx, rightRows, depth+1)
	splitCost := b.cm.InternalBits(split.attr) + leftCost + rightCost

	if b.cfg.Prune == PruneIntegrated && leafCost <= splitCost {
		return &Node{Leaf: true, NumValue: pred}, leafCost
	}
	n := &Node{
		SplitAttr:  split.attr,
		SplitValue: split.value,
		SplitLeft:  split.leftCodes,
		SplitIsCat: split.isCat,
		Left:       leftNode,
		Right:      rightNode,
	}
	return n, splitCost
}

// pruneRegression is the post-hoc pruning pass for PruneAfter mode:
// bottom-up, replace any subtree whose leaf-equivalent costs no more.
func (b *treeBuilder) pruneRegression(ctx context.Context, n *Node, rows []int) (*Node, float64) {
	if b.cancelled(ctx) {
		return n, 0
	}
	pred, outliers := b.leafStatsRegression(rows)
	leafCost := b.cm.LeafBits(b.target) + b.outlierCost(outliers)
	if n.Leaf {
		return n, leafCost
	}
	leftRows, rightRows := b.routeRows(n, rows)
	left, leftCost := b.pruneRegression(ctx, n.Left, leftRows)
	right, rightCost := b.pruneRegression(ctx, n.Right, rightRows)
	splitCost := b.cm.InternalBits(n.SplitAttr) + leftCost + rightCost
	if leafCost <= splitCost {
		return &Node{Leaf: true, NumValue: pred}, leafCost
	}
	n.Left, n.Right = left, right
	return n, splitCost
}

// targetFloats returns the target values of rows, row-aligned, in the
// builder's scratch.
func (b *treeBuilder) targetFloats(rows []int) []float64 {
	target := b.t.Col(b.target).Floats
	b.ys = grow(b.ys, len(rows))
	for i, r := range rows {
		b.ys[i] = target[r]
	}
	return b.ys
}

// candidateSplit describes one evaluated split.
type candidateSplit struct {
	attr      int
	isCat     bool
	value     float64 // numeric threshold
	leftCodes []int32 // categorical left set
	score     float64 // lower is better (total child SSE / Gini)
}

// bestSplitSSE evaluates every candidate attribute and returns the split
// minimizing total child SSE of the target values. ok is false when no
// attribute admits a valid split (all predictor values constant).
func (b *treeBuilder) bestSplitSSE(rows []int, y []float64) (candidateSplit, bool) {
	best := candidateSplit{score: math.Inf(1)}
	found := false
	for _, attr := range b.cands {
		var s candidateSplit
		var ok bool
		if b.t.Attr(attr).Kind == table.Numeric {
			s, ok = b.numericSplitSSE(rows, y, attr)
		} else {
			s, ok = b.categoricalSplitSSE(rows, y, attr)
		}
		if ok && (s.score < best.score ||
			(floats.SameBits(s.score, best.score) && found && s.attr < best.attr)) {
			best = b.keep(s)
			found = true
		}
	}
	return b.own(best), found
}

// keep moves a categorical split's code set out of catLeft, which the
// next candidate overwrites, into bestLeft.
func (b *treeBuilder) keep(s candidateSplit) candidateSplit {
	if s.isCat {
		b.bestLeft = append(b.bestLeft[:0], s.leftCodes...)
		s.leftCodes = b.bestLeft
	}
	return s
}

// own gives the chosen split a code set of its own, since the node built
// from it outlives the scratch.
func (b *treeBuilder) own(s candidateSplit) candidateSplit {
	if s.isCat {
		s.leftCodes = slices.Clone(s.leftCodes)
	}
	return s
}

// numPair is one row of a numeric split scan: predictor value and
// regression target.
type numPair struct {
	x, y float64
}

// lessX orders by x alone. It is negative exactly when a < b, so
// slices.SortFunc leaves rows with equal x in the order sort.Slice with a
// < comparison gives them (both run the same pdqsort). Float sums over
// tied rows, and so near-tied split scores and the archive bytes, depend
// on that order.
func lessX(a, b float64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// numericSplitSSE scans thresholds of a numeric predictor via sorted order
// and prefix sums, in O(n log n).
func (b *treeBuilder) numericSplitSSE(rows []int, y []float64, attr int) (candidateSplit, bool) {
	n := len(rows)
	xs := b.t.Col(attr).Floats
	b.numPairs = grow(b.numPairs, n)
	ps := b.numPairs
	for i, r := range rows {
		ps[i] = numPair{xs[r], y[i]}
	}
	slices.SortFunc(ps, func(p, q numPair) int { return lessX(p.x, q.x) })
	if floats.SameBits(ps[0].x, ps[n-1].x) {
		return candidateSplit{}, false
	}
	sum, sumsq := 0.0, 0.0
	total, totalsq := 0.0, 0.0
	for _, p := range ps {
		total += p.y
		totalsq += p.y * p.y
	}
	best := candidateSplit{attr: attr, score: math.Inf(1)}
	found := false
	for k := 1; k < n; k++ {
		sum += ps[k-1].y
		sumsq += ps[k-1].y * ps[k-1].y
		if floats.SameBits(ps[k-1].x, ps[k].x) {
			continue // not a realizable threshold
		}
		if k < b.cfg.MinLeafRows || n-k < b.cfg.MinLeafRows {
			continue
		}
		fl, fr := float64(k), float64(n-k)
		sseL := sumsq - sum*sum/fl
		sseR := (totalsq - sumsq) - (total-sum)*(total-sum)/fr
		if score := sseL + sseR; score < best.score {
			best.score = score
			// Thresholds live as float32 on the wire; rounding here keeps
			// build-time and decode-time routing identical.
			best.value = floats.F32((ps[k-1].x + ps[k].x) / 2)
			found = true
		}
	}
	return best, found
}

// sseGroup accumulates the target values of one predictor code.
type sseGroup struct {
	code  int32
	sum   float64
	sumsq float64
	n     int
}

// categoricalSplitSSE orders the predictor's codes by mean target value and
// scans prefix partitions — the classic optimal-for-SSE ordering trick.
func (b *treeBuilder) categoricalSplitSSE(rows []int, y []float64, attr int) (candidateSplit, bool) {
	codes := b.t.Col(attr).Codes
	gs := b.sseGroups[:0]
	for i, r := range rows {
		c := codes[r]
		slot := b.byCode[c]
		if slot == 0 {
			gs = append(gs, sseGroup{code: c})
			slot = int32(len(gs))
			b.byCode[c] = slot
		}
		g := &gs[slot-1]
		g.sum += y[i]
		g.sumsq += y[i] * y[i]
		g.n++
	}
	b.sseGroups = gs
	for _, g := range gs {
		b.byCode[g.code] = 0
	}
	if len(gs) < 2 {
		return candidateSplit{}, false
	}
	// (mean, code) is a total order, so the sorted groups do not depend
	// on the order they were found in.
	slices.SortFunc(gs, func(g, h sseGroup) int {
		mg, mh := g.sum/float64(g.n), h.sum/float64(h.n)
		if !floats.SameBits(mg, mh) {
			return lessX(mg, mh)
		}
		return cmp.Compare(g.code, h.code)
	})
	total, totalsq, n := 0.0, 0.0, 0
	for _, g := range gs {
		total += g.sum
		totalsq += g.sumsq
		n += g.n
	}
	best := candidateSplit{attr: attr, isCat: true, score: math.Inf(1)}
	bestK := -1
	sum, sumsq, cnt := 0.0, 0.0, 0
	for k := 0; k < len(gs)-1; k++ {
		sum += gs[k].sum
		sumsq += gs[k].sumsq
		cnt += gs[k].n
		if cnt < b.cfg.MinLeafRows || n-cnt < b.cfg.MinLeafRows {
			continue
		}
		fl, fr := float64(cnt), float64(n-cnt)
		sseL := sumsq - sum*sum/fl
		sseR := (totalsq - sumsq) - (total-sum)*(total-sum)/fr
		if score := sseL + sseR; score < best.score {
			best.score = score
			bestK = k
		}
	}
	if bestK < 0 {
		return best, false
	}
	left := grow(b.catLeft, bestK+1)
	for i := range left {
		left[i] = gs[i].code
	}
	slices.Sort(left)
	b.catLeft = left
	best.leftCodes = left
	return best, true
}

// partition splits rows in place according to the candidate split: the
// rows going left move to the front and the rest follow, each side in
// its original order. It returns the two sides.
func (b *treeBuilder) partition(rows []int, s candidateSplit) (left, right []int) {
	b.right = grow(b.right, len(rows))
	spill := b.right[:0]
	w := 0
	if s.isCat {
		codes := b.t.Col(s.attr).Codes
		for _, r := range rows {
			if containsCode(s.leftCodes, codes[r]) {
				rows[w] = r
				w++
			} else {
				spill = append(spill, r)
			}
		}
	} else {
		xs := b.t.Col(s.attr).Floats
		for _, r := range rows {
			if xs[r] <= s.value {
				rows[w] = r
				w++
			} else {
				spill = append(spill, r)
			}
		}
	}
	copy(rows[w:], spill)
	return rows[:w], rows[w:]
}

// routeRows splits rows in place according to an existing node's split,
// as partition does.
func (b *treeBuilder) routeRows(n *Node, rows []int) (left, right []int) {
	return b.partition(rows, candidateSplit{attr: n.SplitAttr, isCat: n.SplitIsCat,
		value: n.SplitValue, leftCodes: n.SplitLeft})
}
