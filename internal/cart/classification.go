package cart

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/floats"
	"repro/internal/table"
)

// classification tree construction (paper §3.3, categorical targets,
// PUBLIC-style integration of building and cost-based pruning).
//
// A leaf predicts its majority class; misclassified rows beyond the
// target's probability budget become stored outliers. The global budget
// (tol · N rows may stay wrong unstored) is distributed proportionally
// during construction: a leaf with k rows is granted ⌊tol·k⌋ free errors,
// so per-leaf cost estimates sum to a consistent global estimate.
// Split selection minimizes Gini impurity.

// leafStatsClassification returns the majority code, the misclassified
// count, and the count of misclassifications that exceed the leaf's
// pro-rata tolerance budget (the ones that would need outlier storage).
func (b *treeBuilder) leafStatsClassification(rows []int) (majority int32, mis, chargeable int) {
	target := b.t.Col(b.target).Codes
	for _, r := range rows {
		b.byCode[target[r]]++
	}
	bestCode, bestCount := int32(0), -1
	for _, r := range rows {
		code := target[r]
		if c := int(b.byCode[code]); c > bestCount || (c == bestCount && code < bestCode) {
			bestCode, bestCount = code, c
		}
	}
	for _, r := range rows {
		b.byCode[target[r]] = 0
	}
	if bestCount < 0 {
		return 0, 0, 0
	}
	mis = len(rows) - bestCount
	allowance := int(b.tol * float64(len(rows)))
	chargeable = mis - allowance
	if chargeable < 0 {
		chargeable = 0
	}
	return bestCode, mis, chargeable
}

// buildClassification grows (and under PruneIntegrated, prunes) a subtree,
// returning it with its estimated storage cost.
func (b *treeBuilder) buildClassification(ctx context.Context, rows []int, depth int) (*Node, float64) {
	if b.cancelled(ctx) {
		return &Node{Leaf: true}, 0
	}
	majority, mis, chargeable := b.leafStatsClassification(rows)
	leafCost := b.cm.LeafBits(b.target) + b.outlierCost(chargeable)

	if mis == 0 || chargeable == 0 || depth >= b.cfg.MaxDepth || len(rows) < 2*b.cfg.MinLeafRows {
		return &Node{Leaf: true, CatValue: majority}, leafCost
	}
	if b.cfg.Prune == PruneIntegrated && leafCost <= b.leafFloor() {
		return &Node{Leaf: true, CatValue: majority}, leafCost
	}

	split, ok := b.bestSplitGini(rows)
	if !ok {
		return &Node{Leaf: true, CatValue: majority}, leafCost
	}
	leftRows, rightRows := b.partition(rows, split)
	if len(leftRows) < b.cfg.MinLeafRows || len(rightRows) < b.cfg.MinLeafRows {
		return &Node{Leaf: true, CatValue: majority}, leafCost
	}
	leftNode, leftCost := b.buildClassification(ctx, leftRows, depth+1)
	rightNode, rightCost := b.buildClassification(ctx, rightRows, depth+1)
	splitCost := b.cm.InternalBits(split.attr) + leftCost + rightCost

	if b.cfg.Prune == PruneIntegrated && leafCost <= splitCost {
		return &Node{Leaf: true, CatValue: majority}, leafCost
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

// pruneClassification is the post-hoc pass for PruneAfter mode.
func (b *treeBuilder) pruneClassification(ctx context.Context, n *Node, rows []int) (*Node, float64) {
	if b.cancelled(ctx) {
		return n, 0
	}
	majority, _, chargeable := b.leafStatsClassification(rows)
	leafCost := b.cm.LeafBits(b.target) + b.outlierCost(chargeable)
	if n.Leaf {
		return n, leafCost
	}
	leftRows, rightRows := b.routeRows(n, rows)
	left, leftCost := b.pruneClassification(ctx, n.Left, leftRows)
	right, rightCost := b.pruneClassification(ctx, n.Right, rightRows)
	splitCost := b.cm.InternalBits(n.SplitAttr) + leftCost + rightCost
	if leafCost <= splitCost {
		return &Node{Leaf: true, CatValue: majority}, leafCost
	}
	n.Left, n.Right = left, right
	return n, splitCost
}

// bestSplitGini evaluates all candidate attributes under the Gini
// impurity criterion.
func (b *treeBuilder) bestSplitGini(rows []int) (candidateSplit, bool) {
	y, nc := b.classIndex(rows)
	best := candidateSplit{score: math.Inf(1)}
	found := false
	for _, attr := range b.cands {
		var s candidateSplit
		var ok bool
		if b.t.Attr(attr).Kind == table.Numeric {
			s, ok = b.numericSplitGini(rows, y, nc, attr)
		} else {
			s, ok = b.categoricalSplitGini(rows, y, nc, attr)
		}
		if ok && s.score < best.score {
			best = b.keep(s)
			found = true
		}
	}
	return b.own(best), found
}

// classIndex numbers the target codes present in rows densely, in order
// of first appearance, and returns each row's class (in the builder's
// scratch) with the class count.
func (b *treeBuilder) classIndex(rows []int) (y []int, nc int) {
	target := b.t.Col(b.target).Codes
	b.classes = grow(b.classes, len(rows))
	y = b.classes
	for i, r := range rows {
		c := target[r]
		slot := b.byCode[c]
		if slot == 0 {
			nc++
			slot = int32(nc)
			b.byCode[c] = slot
		}
		y[i] = int(slot - 1)
	}
	for _, r := range rows {
		b.byCode[target[r]] = 0
	}
	return y, nc
}

// classCounts returns three zeroed per-class count vectors from the
// builder's scratch: totals, left and right.
func (b *treeBuilder) classCounts(nc int) (totals, left, right []int) {
	b.counts = grow(b.counts, 3*nc)
	clear(b.counts)
	return b.counts[:nc], b.counts[nc : 2*nc], b.counts[2*nc:]
}

func giniFromCounts(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

// clsPair is one row of a numeric split scan: predictor value and class.
type clsPair struct {
	x float64
	y int
}

// numericSplitGini scans thresholds of a numeric predictor keeping running
// class counts.
func (b *treeBuilder) numericSplitGini(rows []int, y []int, nc, attr int) (candidateSplit, bool) {
	n := len(rows)
	xs := b.t.Col(attr).Floats
	b.clsPairs = grow(b.clsPairs, n)
	ps := b.clsPairs
	for i, r := range rows {
		ps[i] = clsPair{xs[r], y[i]}
	}
	slices.SortFunc(ps, func(p, q clsPair) int { return lessX(p.x, q.x) })
	if floats.SameBits(ps[0].x, ps[n-1].x) {
		return candidateSplit{}, false
	}
	totals, leftCounts, rightCounts := b.classCounts(nc)
	for _, p := range ps {
		totals[p.y]++
	}
	copy(rightCounts, totals)
	best := candidateSplit{attr: attr, score: math.Inf(1)}
	found := false
	for k := 1; k < n; k++ {
		leftCounts[ps[k-1].y]++
		rightCounts[ps[k-1].y]--
		if floats.SameBits(ps[k-1].x, ps[k].x) {
			continue
		}
		if k < b.cfg.MinLeafRows || n-k < b.cfg.MinLeafRows {
			continue
		}
		fl, fr := float64(k), float64(n-k)
		score := (fl*giniFromCounts(leftCounts, k) + fr*giniFromCounts(rightCounts, n-k)) / float64(n)
		if score < best.score {
			best.score = score
			// float32 wire format; see numericSplitSSE.
			best.value = floats.F32((ps[k-1].x + ps[k].x) / 2)
			found = true
		}
	}
	return best, found
}

// giniGroup is one predictor code's rows: its class counts are
// groupCounts[off : off+nc].
type giniGroup struct {
	code int32
	off  int
	n    int
}

// categoricalSplitGini orders predictor codes by the proportion of the
// parent's majority class and scans prefix partitions (exact for two
// classes, a strong heuristic for more).
func (b *treeBuilder) categoricalSplitGini(rows []int, y []int, nc, attr int) (candidateSplit, bool) {
	codes := b.t.Col(attr).Codes
	gs := b.giniGroups[:0]
	counts := b.groupCounts[:0]
	for i, r := range rows {
		c := codes[r]
		slot := b.byCode[c]
		if slot == 0 {
			off := len(counts)
			counts = slices.Grow(counts, nc)[:off+nc]
			clear(counts[off:])
			gs = append(gs, giniGroup{code: c, off: off})
			slot = int32(len(gs))
			b.byCode[c] = slot
		}
		g := &gs[slot-1]
		counts[g.off+y[i]]++
		g.n++
	}
	b.giniGroups, b.groupCounts = gs, counts
	for _, g := range gs {
		b.byCode[g.code] = 0
	}
	if len(gs) < 2 {
		return candidateSplit{}, false
	}
	totals, leftCounts, rightCounts := b.classCounts(nc)
	n := 0
	for _, g := range gs {
		for cls, c := range counts[g.off : g.off+nc] {
			totals[cls] += c
		}
		n += g.n
	}
	majorityClass := 0
	for cls := 1; cls < nc; cls++ {
		if totals[cls] > totals[majorityClass] {
			majorityClass = cls
		}
	}
	// (proportion, code) is a total order, so the sorted groups do not
	// depend on the order they were found in.
	slices.SortFunc(gs, func(g, h giniGroup) int {
		pg := float64(counts[g.off+majorityClass]) / float64(g.n)
		ph := float64(counts[h.off+majorityClass]) / float64(h.n)
		if !floats.SameBits(pg, ph) {
			return lessX(pg, ph)
		}
		return cmp.Compare(g.code, h.code)
	})
	best := candidateSplit{attr: attr, isCat: true, score: math.Inf(1)}
	bestK := -1
	copy(rightCounts, totals)
	cnt := 0
	for k := 0; k < len(gs)-1; k++ {
		for cls, c := range counts[gs[k].off : gs[k].off+nc] {
			leftCounts[cls] += c
			rightCounts[cls] -= c
		}
		cnt += gs[k].n
		if cnt < b.cfg.MinLeafRows || n-cnt < b.cfg.MinLeafRows {
			continue
		}
		fl, fr := float64(cnt), float64(n-cnt)
		score := (fl*giniFromCounts(leftCounts, cnt) + fr*giniFromCounts(rightCounts, n-cnt)) / float64(n)
		if score < best.score {
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
