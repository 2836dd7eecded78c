package bench

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/archive"
	"repro/internal/bayesnet"
	"repro/internal/cart"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fascicle"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// scenarios is the registry, in run (and snapshot) order: the three
// archival-throughput pipelines first — rows/sec and bytes/sec are the
// numbers that matter at scale — then the per-component microbenches
// mirroring the §4.2 accounting (CaRT construction dominates, then the
// DependencyFinder, then the full-table passes).
var scenarios = []scenario{
	{name: "compress/cdr", setup: setupCompress},
	{name: "compress/segmented_serial", setup: setupSegmented(1)},
	{name: "compress/segmented_parallel", setup: setupSegmented(0)},
	{name: "decompress/cdr", setup: setupDecompress},
	{name: "query/aggregate", setup: setupQuery},
	{name: "query/archive", setup: setupQueryArchive},
	{name: "micro/bayesnet_build", setup: setupBayesNet},
	{name: "micro/cart_build", setup: setupCartBuild},
	{name: "micro/outlier_scan", setup: setupOutlierScan},
	{name: "micro/fascicle_cluster", setup: setupFascicleCluster},
}

// countingWriter discards the stream but keeps its length, so compress
// scenarios don't pay for buffering the archive they never read.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// setupCompress times the full pipeline on the CDR workload at 1%
// tolerance. Each op runs under a resource-capturing trace, so the
// snapshot records the §4.2 phase tree in both nanoseconds and allocated
// bytes per op.
func setupCompress(cfg Config) (func(*opStats) error, error) {
	t := datagen.CDR(cfg.Rows, cfg.Seed)
	raw := t.RawSizeBytes()
	tol := table.UniformTolerances(t, 0.01, 0)
	return func(st *opStats) error {
		tr := obs.NewTrace("compress")
		tr.CaptureResources()
		var w countingWriter
		stats, err := core.Compress(&w, t, core.Options{Tolerances: tol, Trace: tr})
		if err != nil {
			return err
		}
		st.rows, st.bytes, st.ratio, st.trace = t.NumRows(), raw, stats.Ratio, tr
		return nil
	}, nil
}

// setupSegmented builds a segmented-archive compression scenario with a
// fixed worker count: 1 isolates the serial row-group cost, 0 (=
// GOMAXPROCS) exercises the parallel pipeline on the same input. The
// output bytes are identical at either setting, so any delta between the
// two scenarios is pure scheduling.
func setupSegmented(workers int) func(Config) (func(*opStats) error, error) {
	return func(cfg Config) (func(*opStats) error, error) {
		t := datagen.CDR(cfg.Rows, cfg.Seed)
		raw := t.RawSizeBytes()
		opts := core.Options{Tolerances: table.UniformTolerances(t, 0.01, 0)}
		seg := archive.SegmentOptions{SegmentRows: (t.NumRows() + 3) / 4, Workers: workers}
		return func(st *opStats) error {
			var w countingWriter
			stats, err := archive.WriteTable(&w, t, opts, seg)
			if err != nil {
				return err
			}
			st.rows, st.bytes, st.ratio = t.NumRows(), raw, stats.Ratio
			return nil
		}, nil
	}
}

// setupDecompress times archive decode: the read path every query and
// download pays.
func setupDecompress(cfg Config) (func(*opStats) error, error) {
	t := datagen.CDR(cfg.Rows, cfg.Seed)
	raw := t.RawSizeBytes()
	tol := table.UniformTolerances(t, 0.01, 0)
	data, _, err := compressBytes(t, core.Options{Tolerances: tol})
	if err != nil {
		return nil, err
	}
	return func(st *opStats) error {
		if _, err := decompressBytes(data); err != nil {
			return err
		}
		st.rows, st.bytes = t.NumRows(), raw
		return nil
	}, nil
}

// aggregateQuery is the query both query scenarios run: AVG with a
// numeric predicate and GROUP BY on the CDR workload.
var aggregateQuery = query.Query{
	Agg:     query.Avg,
	Column:  "charge_cents",
	Where:   query.NumCmp("duration_sec", query.Gt, 200),
	GroupBy: "plan",
}

// setupQuery times the bounded-approximate aggregation engine alone, on
// the original in-memory table.
func setupQuery(cfg Config) (func(*opStats) error, error) {
	t := datagen.CDR(cfg.Rows, cfg.Seed)
	tol := table.UniformTolerances(t, 0.01, 0)
	return func(st *opStats) error {
		if _, err := query.Run(t, tol, aggregateQuery); err != nil {
			return err
		}
		st.rows, st.queries = t.NumRows(), 1
		return nil
	}, nil
}

// setupQueryArchive times the same query through the archive read path,
// SegReader.Query, on CDR rows ordered by start_hour in 16 segments. The
// predicate is on a non-key column, so no segment is pruned: every op
// reads the footer's zone maps, decodes all 16 segments, merges them and
// aggregates.
func setupQueryArchive(cfg Config) (func(*opStats) error, error) {
	t := datagen.CDR(cfg.Rows, cfg.Seed)
	sorted, err := t.SelectRows(t.LexSortedRows())
	if err != nil {
		return nil, err
	}
	tol := table.UniformTolerances(sorted, 0.01, 0)
	var buf bytes.Buffer
	seg := archive.SegmentOptions{SegmentRows: (sorted.NumRows() + 15) / 16}
	if _, err := archive.WriteTable(&buf, sorted, core.Options{Tolerances: tol}, seg); err != nil {
		return nil, err
	}
	sr, err := archive.OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	return func(st *opStats) error {
		if _, _, err := sr.Query(tol, aggregateQuery); err != nil {
			return err
		}
		st.rows, st.queries = t.NumRows(), 1
		return nil
	}, nil
}

// setupBayesNet isolates the DependencyFinder's model build on a
// Census sample.
func setupBayesNet(cfg Config) (func(*opStats) error, error) {
	t := datagen.Census(cfg.Rows, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := t.Sample(minInt(1500, t.NumRows()), rng)
	return func(st *opStats) error {
		if _, err := bayesnet.Build(sample, bayesnet.Config{}); err != nil {
			return err
		}
		st.rows = sample.NumRows()
		return nil
	}, nil
}

// setupCartBuild isolates one regression-CaRT construction on Corel —
// the paper attributes 50-75% of SPARTAN's time here.
func setupCartBuild(cfg Config) (func(*opStats) error, error) {
	t := datagen.Corel(cfg.Rows, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := t.Sample(minInt(500, t.NumRows()), rng)
	cm := cart.NewCostModel(t)
	tol := 0.01 * t.Col(16).Range()
	return func(st *opStats) error {
		if _, _, err := cart.Build(sample, 16, []int{14, 15, 17, 18}, tol, cm,
			cart.Config{FullRows: t.NumRows()}); err != nil {
			return err
		}
		st.rows = sample.NumRows()
		return nil
	}, nil
}

// setupOutlierScan isolates the full-table model-application pass.
func setupOutlierScan(cfg Config) (func(*opStats) error, error) {
	t := datagen.Corel(cfg.Rows, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sample := t.Sample(minInt(500, t.NumRows()), rng)
	cm := cart.NewCostModel(t)
	tol := 0.01 * t.Col(16).Range()
	m, _, err := cart.Build(sample, 16, []int{14, 15, 17, 18}, tol, cm,
		cart.Config{FullRows: t.NumRows()})
	if err != nil {
		return nil, err
	}
	raw := t.NumRows() * 4 // one float32 column scanned per op
	return func(st *opStats) error {
		if err := m.ComputeOutliers(t, tol); err != nil {
			return err
		}
		st.rows, st.bytes = t.NumRows(), raw
		return nil
	}, nil
}

// setupFascicleCluster isolates the RowAggregator's clustering pass.
func setupFascicleCluster(cfg Config) (func(*opStats) error, error) {
	t := datagen.CDR(cfg.Rows, cfg.Seed)
	widths := make([]float64, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		if t.Attr(i).Kind == table.Numeric {
			widths[i] = 0.01 * t.Col(i).Range()
		}
	}
	raw := t.RawSizeBytes()
	return func(st *opStats) error {
		if _, err := fascicle.Cluster(t, fascicle.Params{Widths: widths}); err != nil {
			return err
		}
		st.rows, st.bytes = t.NumRows(), raw
		return nil
	}, nil
}

// compressBytes/decompressBytes mirror the root package's convenience
// helpers without importing it (internal packages cannot).
func compressBytes(t *table.Table, opts core.Options) ([]byte, *core.Stats, error) {
	var buf appendWriter
	stats, err := core.Compress(&buf, t, opts)
	if err != nil {
		return nil, nil, err
	}
	return buf.b, stats, nil
}

func decompressBytes(data []byte) (*table.Table, error) {
	return core.Decompress(bytes.NewReader(data))
}

type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// fmtRate renders a rate for progress lines.
func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
