// Package core orchestrates SPARTAN's four components (paper §2.3) into
// the end-to-end compression pipeline:
//
//	DependencyFinder → CaRTSelector ⇄ CaRTBuilder → RowAggregator → codec
//
// It is the paper's primary contribution — everything else under internal/
// is a substrate it composes. The exported types here are re-exported by
// the root spartan package, which is the intended import path for users.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bayesnet"
	"repro/internal/cart"
	"repro/internal/codec"
	"repro/internal/fascicle"
	"repro/internal/obs"
	"repro/internal/selector"
	"repro/internal/table"
)

// Span names emitted by Compress, one per pipeline component (paper
// §2.3) plus the encoder, all children of SpanCompress. Consumers keying
// metrics or assertions off the trace should use these constants.
const (
	SpanCompress         = "compress"
	SpanDependencyFinder = "dependency_finder"
	SpanCaRTSelection    = "cart_selection"
	SpanRowAggregation   = "row_aggregation"
	SpanOutlierScan      = "outlier_scan"
	SpanEncode           = "encode"
)

// PhaseSpans lists the per-component span names in pipeline order.
var PhaseSpans = []string{
	SpanDependencyFinder, SpanCaRTSelection, SpanRowAggregation, SpanOutlierScan, SpanEncode,
}

// SelectionStrategy picks the CaRTSelector algorithm (paper §3.2).
type SelectionStrategy int

const (
	// SelectWMISParents runs MaxIndependentSet with parent neighborhoods —
	// the paper's default and its best cost/time trade-off (Table 1).
	SelectWMISParents SelectionStrategy = iota
	// SelectWMISMarkov runs MaxIndependentSet with Markov-blanket
	// neighborhoods (slightly better ratios, slower).
	SelectWMISMarkov
	// SelectGreedy runs the single-pass Greedy selector.
	SelectGreedy
)

// String names the strategy as in Table 1 of the paper.
func (s SelectionStrategy) String() string {
	switch s {
	case SelectGreedy:
		return "Greedy"
	case SelectWMISMarkov:
		return "WMIS(Markov)"
	default:
		return "WMIS(Parent)"
	}
}

// Options configures compression. The zero value requests lossless
// compression with the paper's default knobs.
type Options struct {
	// Tolerances is the error-tolerance vector ē; nil means all-zero
	// (lossless). Quantile-form numeric entries are resolved against the
	// input table's value ranges.
	Tolerances table.Tolerances
	// SampleBytes is the model-inference sample size (the paper's default
	// is 50 KB, §4.1). Zero selects the default.
	SampleBytes int
	// Selection picks the CaRT-selection algorithm (default
	// SelectWMISParents).
	Selection SelectionStrategy
	// Theta is Greedy's relative-benefit threshold (default 2, §4.1).
	Theta float64
	// Prune selects the CaRT pruning strategy (default PruneIntegrated).
	Prune cart.PruneMode
	// DisableRowAggregation turns off the fascicle pass over T'
	// (ablation).
	DisableRowAggregation bool
	// MaxFascicles is the RowAggregator's fascicle budget (the paper's P,
	// default 500).
	MaxFascicles int
	// Seed fixes all sampling randomness; zero means seed 1. Compression
	// is fully deterministic for a given (table, options) pair.
	Seed int64
	// Trace, when non-nil, receives one span per pipeline component
	// (see PhaseSpans) under a SpanCompress root, annotated with rows
	// scanned, CaRTs built, outliers found and bytes written. Tracing is
	// always on internally — Timings is derived from the spans — so
	// supplying a Trace costs nothing extra.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.SampleBytes <= 0 {
		o.SampleBytes = 50 << 10
	}
	if o.Theta <= 0 {
		o.Theta = 2
	}
	if o.MaxFascicles <= 0 {
		o.MaxFascicles = 500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Timings records per-component wall-clock time, mirroring the paper's
// §4.2 running-time accounting. It is derived from the pipeline trace
// spans (see Options.Trace), kept as a struct for convenient access.
type Timings struct {
	DependencyFinder time.Duration
	CaRTSelection    time.Duration // includes all CaRT builds
	OutlierScan      time.Duration // full-table pass applying the models
	RowAggregation   time.Duration
	Encode           time.Duration
}

// Total sums all phases.
func (t Timings) Total() time.Duration {
	return t.DependencyFinder + t.CaRTSelection + t.OutlierScan + t.RowAggregation + t.Encode
}

// Stats describes one compression run.
type Stats struct {
	RawBytes        int     // uncompressed fixed-record size of the input
	CompressedBytes int     // total output size
	Ratio           float64 // CompressedBytes / RawBytes (smaller is better)

	Predicted    []string // names of CaRT-predicted attributes
	Materialized []string // names of materialized attributes
	// CartsBuilt is selector.Result.CartsBuilt: the CaRT builds the
	// selection algorithm requested, as the paper counts them. WMIS
	// serves repeated requests from a per-search memo, so it may
	// construct fewer trees. Zero from Plan.Apply.
	CartsBuilt int
	Outliers   int // total outlier values stored
	Fascicles  int // fascicles found by the RowAggregator

	HeaderBytes int // schema + dictionaries + attribute lists
	ModelBytes  int // serialized CaRTs incl. outliers
	TPrimeBytes int // deflated materialized projection

	Timings Timings
}

// Compress writes the semantically compressed form of t to w and reports
// statistics. The input table is not modified. It is CompressContext with
// a background context; long-running or per-request callers should prefer
// CompressContext so the pipeline can be cancelled.
func Compress(w io.Writer, t *table.Table, opts Options) (*Stats, error) {
	return CompressContext(context.Background(), w, t, opts)
}

// CompressContext is Compress with cancellation: the pipeline checks ctx
// at every phase boundary and inside each phase's long-running inner
// loops (WMIS candidate rounds, per-node CaRT growth, fascicle seed
// growth, outlier row batches), so a cancelled or expired context
// abandons the run within milliseconds. The returned error wraps
// ctx.Err() together with the phase the run died in, and the trace span
// of that phase (plus the root) is annotated cancelled=true.
//
// It is NewPlan(t) then Apply(t) under one SpanCompress root.
func CompressContext(ctx context.Context, w io.Writer, t *table.Table, opts Options) (stats *Stats, err error) {
	err = inRoot(t, opts.Trace, func(root *obs.Span) error {
		p, err := newPlan(ctx, root, t, opts)
		if err == nil {
			stats, err = p.apply(ctx, root, w, t, &Stats{CartsBuilt: p.sel.CartsBuilt, Timings: p.timings})
		}
		return err
	})
	return stats, err
}

// Plan holds the models built once from a sample of a table (paper
// §2.3). It is read-only, so concurrent Apply calls may share it.
type Plan struct {
	opts    Options // defaults applied
	schema  table.Schema
	dicts   [][]string // the dictionaries the models' category codes index
	sel     *selector.Result
	timings Timings // DependencyFinder and CaRTSelection only
}

// NewPlan runs the dependency_finder and cart_selection phases on a
// sample of t, with tolerances resolved against t.
func NewPlan(ctx context.Context, t *table.Table, opts Options) (p *Plan, err error) {
	err = inRoot(t, opts.Trace, func(root *obs.Span) (err error) {
		p, err = newPlan(ctx, root, t, opts)
		return err
	})
	return p, err
}

// Apply runs the row_aggregation, outlier_scan and encode phases on
// rows, which must share the planned table's schema and dictionaries
// (any SelectRows of it does). Tolerances resolve against rows. The
// Stats leave the plan's CartsBuilt and timings zero.
func (p *Plan) Apply(ctx context.Context, w io.Writer, rows *table.Table) (stats *Stats, err error) {
	err = inRoot(rows, p.opts.Trace, func(root *obs.Span) (err error) {
		stats, err = p.apply(ctx, root, w, rows, &Stats{})
		return err
	})
	return stats, err
}

// inRoot runs fn under a SpanCompress root on tr, or on a private trace
// (Timings is read off the spans), marking it cancelled=true if need be.
func inRoot(t *table.Table, tr *obs.Trace, fn func(root *obs.Span) error) error {
	if t == nil || t.NumCols() == 0 {
		return fmt.Errorf("spartan: nil or empty table")
	}
	if tr == nil {
		tr = obs.NewTrace(SpanCompress)
	}
	root := tr.Start(SpanCompress).
		SetAttr("rows", t.NumRows()).
		SetAttr("cols", t.NumCols()).
		SetAttr("raw_bytes", t.RawSizeBytes())
	defer root.Finish()
	err := fn(root)
	if isCancellation(err) {
		root.SetAttr("cancelled", true)
	}
	return err
}

func newPlan(ctx context.Context, root *obs.Span, t *table.Table, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	resolved, err := opts.Tolerances.Resolve(t)
	if err != nil {
		return nil, err
	}
	p := &Plan{opts: opts, schema: t.Schema()}
	for a := range p.schema {
		p.dicts = append(p.dicts, t.Col(a).Dict)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// DependencyFinder: Bayesian network on a sample. A quarter of the
	// sample budget is held out for honest prediction-cost estimates
	// during selection.
	var (
		sample, build, holdout *table.Table
		net                    *bayesnet.Network
	)
	err = runPhase(ctx, root, SpanDependencyFinder, &p.timings.DependencyFinder, func(sp *obs.Span) error {
		sample = t.SampleBytes(opts.SampleBytes, rng)
		var err error
		build, holdout, err = splitSample(sample)
		if err != nil {
			return fmt.Errorf("spartan: dependency finder: %w", err)
		}
		net, err = bayesnet.Build(sample, bayesnet.Config{MaxParents: 6})
		if err != nil {
			return fmt.Errorf("spartan: dependency finder: %w", err)
		}
		sp.SetAttr("sample_rows", sample.NumRows()).
			SetAttr("sample_budget_bytes", opts.SampleBytes)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// CaRTSelector. Materialization costs are estimated by entropy-coding
	// the sample's columns, so the MaterCost-vs-PredCost trade-off matches
	// what the T' encoder actually achieves.
	err = runPhase(ctx, root, SpanCaRTSelection, &p.timings.CaRTSelection, func(sp *obs.Span) error {
		cost := cart.NewCostModel(t)
		materBits, err := codec.EstimateBitsPerValue(sample)
		if err != nil {
			return fmt.Errorf("spartan: CaRT selection: %w", err)
		}
		for i, bits := range materBits {
			cost.SetMaterBits(i, bits)
		}
		in := selector.Input{
			Sample:  build,
			Holdout: holdout,
			Tol:     resolved,
			Net:     net,
			Cost:    cost,
			CartCfg: cart.Config{FullRows: t.NumRows(), Prune: opts.Prune},
		}
		switch opts.Selection {
		case SelectGreedy:
			p.sel, err = selector.GreedyContext(ctx, in, opts.Theta)
		case SelectWMISMarkov:
			p.sel, err = selector.MaxIndependentSetContext(ctx, in, selector.MarkovBlanket)
		default:
			p.sel, err = selector.MaxIndependentSetContext(ctx, in, selector.Parents)
		}
		if err != nil {
			return fmt.Errorf("spartan: CaRT selection: %w", err)
		}
		sp.SetAttr("strategy", opts.Selection.String()).
			SetAttr("carts_built", p.sel.CartsBuilt).
			SetAttr("predicted", len(p.sel.Predicted)).
			SetAttr("materialized", len(p.sel.Materialized))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// apply fills stats in with one Apply run over t.
func (p *Plan) apply(ctx context.Context, root *obs.Span, w io.Writer, t *table.Table, stats *Stats) (*Stats, error) {
	ok := slices.Equal(t.Schema(), p.schema)
	for a := 0; ok && a < len(p.dicts); a++ {
		ok = slices.Equal(t.Col(a).Dict, p.dicts[a])
	}
	if !ok {
		return nil, fmt.Errorf("spartan: rows do not have the planned schema and dictionaries")
	}
	resolved, err := p.opts.Tolerances.Resolve(t)
	if err != nil {
		return nil, err
	}
	stats.RawBytes = t.RawSizeBytes()
	for _, a := range p.sel.Predicted {
		stats.Predicted = append(stats.Predicted, t.Attr(a).Name)
	}
	for _, a := range p.sel.Materialized {
		stats.Materialized = append(stats.Materialized, t.Attr(a).Name)
	}

	// RowAggregator: fascicle-quantize the materialized projection without
	// crossing any CaRT split value.
	applyTable := t
	err = runPhase(ctx, root, SpanRowAggregation, &stats.Timings.RowAggregation, func(sp *obs.Span) error {
		if !p.opts.DisableRowAggregation && len(p.sel.Materialized) > 0 {
			var err error
			applyTable, stats.Fascicles, err = rowAggregate(ctx, t, p.sel, resolved, p.opts)
			if err != nil {
				return fmt.Errorf("spartan: row aggregation: %w", err)
			}
		}
		sp.SetAttr("fascicles", stats.Fascicles)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Outlier scan: one pass over the full table per model (paper §2.3:
	// "SPARTAN then uses the CaRTs built to compress the full data set in
	// one pass").
	models := make([]*cart.Model, len(p.sel.Predicted))
	err = runPhase(ctx, root, SpanOutlierScan, &stats.Timings.OutlierScan, func(sp *obs.Span) error {
		// One scan per predicted attribute, bounded to GOMAXPROCS workers
		// (the same semaphore pattern the WMIS selector uses) so a wide
		// table cannot spawn hundreds of full-table scans at once. Each
		// scan checks ctx between row batches, and writes the outliers of
		// its own copy of the model: the plan's models are shared.
		scanErrs := make([]error, len(p.sel.Predicted))
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for i, a := range p.sel.Predicted {
			wg.Add(1)
			sem <- struct{}{}
			go func(i, a int) {
				defer wg.Done()
				defer func() { <-sem }()
				m := *p.sel.Models[a]
				m.Outliers = nil
				var perClass map[int32]float64
				if t.Attr(a).Kind == table.Categorical {
					perClass = resolved[a].ClassBudgets(t.Col(a).Dict)
				}
				scanErrs[i] = m.ComputeOutliersBudgetContext(ctx, applyTable, resolved[a].Value, perClass)
				models[i] = &m
			}(i, a)
		}
		wg.Wait()
		for _, err := range scanErrs {
			if err != nil {
				return fmt.Errorf("spartan: outlier scan: %w", err)
			}
		}
		for _, m := range models {
			stats.Outliers += len(m.Outliers)
		}
		sp.SetAttr("rows_scanned", t.NumRows()*len(p.sel.Predicted)).
			SetAttr("outliers", stats.Outliers)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Encode.
	err = runPhase(ctx, root, SpanEncode, &stats.Timings.Encode, func(sp *obs.Span) error {
		bd, err := codec.Encode(w, applyTable, p.sel.Materialized, models)
		if err != nil {
			return fmt.Errorf("spartan: encoding: %w", err)
		}
		stats.HeaderBytes = bd.HeaderBytes
		stats.ModelBytes = bd.ModelBytes
		stats.TPrimeBytes = bd.TPrimeBytes
		stats.CompressedBytes = bd.Total()
		if stats.RawBytes > 0 {
			stats.Ratio = float64(stats.CompressedBytes) / float64(stats.RawBytes)
		}
		sp.SetAttr("bytes_written", stats.CompressedBytes).
			SetAttr("header_bytes", stats.HeaderBytes).
			SetAttr("model_bytes", stats.ModelBytes).
			SetAttr("tprime_bytes", stats.TPrimeBytes)
		return nil
	})
	if err != nil {
		return nil, err
	}
	root.SetAttr("ratio", fmt.Sprintf("%.4f", stats.Ratio))
	return stats, nil
}

// runPhase runs one pipeline component inside a child span of root,
// refusing to start it at all when ctx is already done (the phase
// boundary checkpoint). The span's Finish is deferred so an error return
// (or a panic in fn) can never leak an open span, and the phase's
// wall-clock time lands in *timing even on failure — partial runs still
// account their cost. A phase killed by cancellation gets its span
// annotated cancelled=true.
func runPhase(ctx context.Context, root *obs.Span, name string, timing *time.Duration, fn func(sp *obs.Span) error) (err error) {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("spartan: %s: %w", name, cerr)
	}
	sp := root.StartChild(name)
	defer func() {
		if isCancellation(err) {
			sp.SetAttr("cancelled", true)
		}
		sp.Finish()
		*timing = sp.Duration()
	}()
	return fn(sp)
}

// isCancellation reports whether err stems from a done context.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// splitSample partitions the sample into build (3/4) and holdout (1/4)
// subsets by row position. With fewer than 8 rows the whole sample builds
// and no holdout is used.
func splitSample(sample *table.Table) (build, holdout *table.Table, err error) {
	n := sample.NumRows()
	if n < 8 {
		return sample, nil, nil
	}
	var buildRows, holdRows []int
	for r := 0; r < n; r++ {
		if r%4 == 3 {
			holdRows = append(holdRows, r)
		} else {
			buildRows = append(buildRows, r)
		}
	}
	b, err := sample.SelectRows(buildRows)
	if err != nil {
		return nil, nil, fmt.Errorf("sample split: %w", err)
	}
	h, err := sample.SelectRows(holdRows)
	if err != nil {
		return nil, nil, fmt.Errorf("sample split: %w", err)
	}
	return b, h, nil
}

// rowAggregate runs the fascicle pass over the materialized projection and
// grafts the quantized columns into a full-width copy of t.
func rowAggregate(ctx context.Context, t *table.Table, plan *selector.Result, resolved table.Tolerances, opts Options) (*table.Table, int, error) {
	proj, err := t.Project(plan.Materialized)
	if err != nil {
		return nil, 0, err
	}
	widths := make([]float64, proj.NumCols())
	splits := make([][]float64, proj.NumCols())
	splitsByAttr := collectSplitValues(plan)
	for i, a := range plan.Materialized {
		if t.Attr(a).Kind == table.Numeric {
			widths[i] = resolved[a].Value
			splits[i] = splitsByAttr[a]
		}
	}
	clustering, err := fascicle.ClusterContext(ctx, proj, fascicle.Params{
		Widths:       widths,
		SplitValues:  splits,
		MaxFascicles: opts.MaxFascicles,
	})
	if err != nil {
		return nil, 0, err
	}
	quantized := clustering.Quantize(proj)

	cols := make([]*table.Column, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		cols[i] = t.Col(i)
	}
	for i, a := range plan.Materialized {
		cols[a] = quantized.Col(i)
	}
	merged, err := table.New(t.Schema(), cols)
	if err != nil {
		return nil, 0, err
	}
	return merged, len(clustering.Fascicles), nil
}

// collectSplitValues walks every selected model and gathers, per
// attribute, the numeric split thresholds whose straddling the
// RowAggregator must avoid (paper §3.4).
func collectSplitValues(plan *selector.Result) map[int][]float64 {
	out := map[int][]float64{}
	for _, m := range plan.Models {
		var walk func(n *cart.Node)
		walk = func(n *cart.Node) {
			if n == nil || n.Leaf {
				return
			}
			if !n.SplitIsCat {
				out[n.SplitAttr] = append(out[n.SplitAttr], n.SplitValue)
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(m.Root)
	}
	return out
}

// Decompress reconstructs a table from a stream produced by Compress.
func Decompress(r io.Reader) (*table.Table, error) {
	return codec.Decode(r)
}
