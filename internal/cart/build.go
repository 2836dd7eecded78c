package cart

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/table"
)

// PruneMode selects the pruning strategy, enabling the paper's ablation of
// integrated build+prune vs conventional build-then-prune (§3.3, §4.2).
type PruneMode int

const (
	// PruneIntegrated interleaves pruning with growth: a node is never
	// expanded when a lower bound on any subtree's cost already exceeds the
	// node's leaf cost, and grown subtrees costlier than a leaf collapse
	// immediately. This is SPARTAN's default.
	PruneIntegrated PruneMode = iota
	// PruneAfter grows the full tree (bounded by MaxDepth/MinLeafRows),
	// then prunes bottom-up by storage cost — the conventional two-phase
	// approach the paper compares against.
	PruneAfter
	// PruneNone grows the full tree and keeps it; used in tests.
	PruneNone
)

// Config bounds tree growth.
type Config struct {
	// MinLeafRows is the minimum number of sample rows per leaf
	// (default 4).
	MinLeafRows int
	// MaxDepth bounds the tree depth (default 24).
	MaxDepth int
	// Prune selects the pruning strategy (default PruneIntegrated).
	Prune PruneMode
	// FullRows is the row count of the full table the model will be
	// applied to; sample outlier counts are scaled by FullRows/sampleRows
	// when estimating storage costs. If zero, the sample is assumed to be
	// the full table.
	FullRows int
}

func (c Config) withDefaults(sampleRows int) Config {
	if c.MinLeafRows <= 0 {
		c.MinLeafRows = 4
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 24
	}
	if c.FullRows <= 0 {
		c.FullRows = sampleRows
	}
	return c
}

// Build constructs a CaRT predicting target from the candidate predictor
// attributes cands, trained on sample (typically a small random sample of
// the full table). tol is the resolved error tolerance of the target
// (absolute bound for numeric targets, misclassification probability for
// categorical ones). The returned model has no outliers yet; call
// (*Model).ComputeOutliers against the full table before measuring
// PredCost precisely. Build itself returns a cost estimate based on
// sample-scaled outlier counts.
//
// cands must not contain target; an empty cands yields an error (the
// selector assigns infinite prediction cost to such attributes).
func Build(sample *table.Table, target int, cands []int, tol float64,
	cm *CostModel, cfg Config) (*Model, float64, error) {
	return BuildContext(context.Background(), sample, target, cands, tol, cm, cfg)
}

// BuildContext is Build with cancellation: growth checks ctx at every
// node expansion, so a cancelled context abandons the tree within one
// split evaluation and returns the (wrapped) context error.
func BuildContext(ctx context.Context, sample *table.Table, target int, cands []int, tol float64,
	cm *CostModel, cfg Config) (*Model, float64, error) {
	if len(cands) == 0 {
		return nil, 0, fmt.Errorf("cart: no candidate predictors for attribute %d", target)
	}
	for _, c := range cands {
		if c == target {
			return nil, 0, fmt.Errorf("cart: target %d appears in its own predictor set", target)
		}
		if c < 0 || c >= sample.NumCols() {
			return nil, 0, fmt.Errorf("cart: candidate %d out of range", c)
		}
	}
	if sample.NumRows() == 0 {
		return nil, 0, fmt.Errorf("cart: empty sample")
	}
	cfg = cfg.withDefaults(sample.NumRows())
	b := &treeBuilder{
		t:      sample,
		target: target,
		cands:  append([]int(nil), cands...),
		tol:    tol,
		cm:     cm,
		cfg:    cfg,
		scale:  float64(cfg.FullRows) / float64(sample.NumRows()),
	}
	sort.Ints(b.cands)
	domain := len(sample.Col(target).Dict)
	for _, c := range b.cands {
		domain = max(domain, len(sample.Col(c).Dict))
	}
	b.byCode = make([]int32, domain)
	rows := b.identityRows(sample.NumRows())
	kind := sample.Attr(target).Kind
	var root *Node
	var cost float64
	if kind == table.Numeric {
		root, cost = b.buildRegression(ctx, rows, 0)
	} else {
		root, cost = b.buildClassification(ctx, rows, 0)
	}
	if cfg.Prune == PruneAfter && b.ctxErr == nil {
		// Growth reordered rows in place; prune from the original order.
		rows = b.identityRows(sample.NumRows())
		if kind == table.Numeric {
			root, cost = b.pruneRegression(ctx, root, rows)
		} else {
			root, cost = b.pruneClassification(ctx, root, rows)
		}
	}
	if b.ctxErr != nil {
		return nil, 0, fmt.Errorf("cart: build cancelled: %w", b.ctxErr)
	}
	m := &Model{Target: target, TargetKind: kind, Root: root}
	return m, cost, nil
}

type treeBuilder struct {
	t      *table.Table
	target int
	cands  []int
	tol    float64
	cm     *CostModel
	cfg    Config
	scale  float64 // full-table rows per sample row
	// ctxErr records the first cancellation observed during growth. The
	// recursive builders return a placeholder leaf once it is set, so the
	// whole tree unwinds without threading an error through every level;
	// BuildContext converts it into the returned error.
	ctxErr error

	scratch
}

// scratch holds the buffers shared by every node of a tree. A node is
// done with them once its split is chosen, before either child is built.
// Each buffer grows to the root's row count on first use. (Pooling them
// across builds saved 13% of compress-small's allocated bytes but raised
// its peak RSS by about 1 MB.)
type scratch struct {
	rows       []int     // the rows of the tree, partitioned in place
	ys, vals   []float64 // targets row-aligned; sorted leaf values
	classes    []int     // each row's class index
	counts     []int     // per-class counts (classCounts)
	right      []int     // the right side of a partition, before copy-back
	numPairs   []numPair
	clsPairs   []clsPair
	sseGroups  []sseGroup
	giniGroups []giniGroup
	// groupCounts holds giniGroups' per-class counts, nc per group.
	groupCounts []int
	// catLeft is the code set of the categorical split just evaluated;
	// bestLeft holds the best one so far while the node's other
	// candidates are evaluated.
	catLeft, bestLeft []int32
	// byCode is indexed by a categorical code of the target or of a
	// candidate: a group or class slot (index+1) or a count. It is all
	// zero between uses.
	byCode []int32
}

// identityRows returns 0..n-1 in the scratch row buffer.
func (s *scratch) identityRows(n int) []int {
	s.rows = grow(s.rows, n)
	for i := range s.rows {
		s.rows[i] = i
	}
	return s.rows
}

// grow returns buf resized to n, reusing its storage when large enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// cancelled reports (and latches) whether ctx is done. It is checked at
// every node expansion, bounding the work after a cancel to one split
// evaluation.
func (b *treeBuilder) cancelled(ctx context.Context) bool {
	if b.ctxErr != nil {
		return true
	}
	if err := ctx.Err(); err != nil {
		b.ctxErr = err
		return true
	}
	return false
}

// leafFloor is the cheapest any expanded subtree could cost: one internal
// node plus two leaves with zero outliers. This realizes the paper's
// "lower bound on the cost of a yet-to-be-expanded subtree" that lets
// pruning run during growth.
func (b *treeBuilder) leafFloor() float64 {
	minInternal := math.Inf(1)
	for _, c := range b.cands {
		if v := b.cm.InternalBits(c); v < minInternal {
			minInternal = v
		}
	}
	return minInternal + 2*b.cm.LeafBits(b.target)
}

// outlierCost converts a sample outlier count into estimated full-table
// outlier bits.
func (b *treeBuilder) outlierCost(sampleOutliers int) float64 {
	return b.scale * float64(sampleOutliers) * b.cm.OutlierBits(b.target)
}
