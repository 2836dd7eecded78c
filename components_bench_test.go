package spartan

// Per-component micro-benchmarks: the paper's §4.2 accounting attributes
// 50-75% of SPARTAN's time to CaRT construction, ~20% to the
// DependencyFinder, and the rest to full-table passes. These benches
// expose each component so regressions are attributable.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bayesnet"
	"repro/internal/cart"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fascicle"
	"repro/internal/gzipref"
	"repro/internal/pzipref"
	"repro/internal/table"
	"repro/internal/wmis"
)

func BenchmarkBayesNetBuild(b *testing.B) {
	t := datagen.Census(25000, 1)
	rng := rand.New(rand.NewSource(1))
	sample := t.Sample(1500, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bayesnet.Build(sample, bayesnet.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewPlan runs model building alone (dependency_finder and
// cart_selection) on the compress-small inputs: each generator at 4000
// rows under 1% and 5% quantile tolerances, default options.
func BenchmarkNewPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	gens := []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
		{"forest", datagen.ForestCover},
	}
	for _, g := range gens {
		t := g.gen(4000, rng.Int63())
		for _, frac := range []float64{0.01, 0.05} {
			opts := core.Options{Tolerances: table.UniformTolerances(t, frac, 0)}
			b.Run(fmt.Sprintf("%s/%g%%", g.name, frac*100), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.NewPlan(context.Background(), t, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCartBuildRegression(b *testing.B) {
	t := datagen.Corel(4000, 1)
	rng := rand.New(rand.NewSource(1))
	sample := t.Sample(500, rng)
	cm := cart.NewCostModel(t)
	tol := 0.01 * t.Col(16).Range()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cart.Build(sample, 16, []int{14, 15, 17, 18}, tol, cm,
			cart.Config{FullRows: t.NumRows()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCartBuildClassification(b *testing.B) {
	t := datagen.Census(4000, 1)
	rng := rand.New(rand.NewSource(1))
	sample := t.Sample(1000, rng)
	cm := cart.NewCostModel(t)
	educIdx := t.Schema().Index("education")
	yearsIdx := t.Schema().Index("educ_years")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cart.Build(sample, educIdx, []int{yearsIdx}, 0, cm,
			cart.Config{FullRows: t.NumRows()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOutlierScan(b *testing.B) {
	t := datagen.Corel(20000, 1)
	rng := rand.New(rand.NewSource(1))
	sample := t.Sample(500, rng)
	cm := cart.NewCostModel(t)
	tol := 0.01 * t.Col(16).Range()
	m, _, err := cart.Build(sample, 16, []int{14, 15, 17, 18}, tol, cm,
		cart.Config{FullRows: t.NumRows()})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(t.NumRows() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ComputeOutliers(t, tol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFascicleCluster(b *testing.B) {
	t := datagen.CDR(20000, 1)
	widths := make([]float64, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		if t.Attr(i).Kind == table.Numeric {
			widths[i] = 0.01 * t.Col(i).Range()
		}
	}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fascicle.Cluster(t, fascicle.Params{Widths: widths}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFascicleClusterSegment clusters one archive segment's worth of
// Census rows (8000) at 1% widths, the RowAggregator's per-segment work:
// segments this large reach the 500-fascicle cap and the failed-seed path.
func BenchmarkFascicleClusterSegment(b *testing.B) {
	t := datagen.Census(8000, 1)
	widths := make([]float64, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		if t.Attr(i).Kind == table.Numeric {
			widths[i] = 0.01 * t.Col(i).Range()
		}
	}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fascicle.Cluster(t, fascicle.Params{Widths: widths}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode writes the T' stream of a 4000-row CDR table with every
// attribute materialized: the per-cell encode loop and the deflate writer.
func BenchmarkEncode(b *testing.B) {
	t := datagen.CDR(4000, 1)
	all := make([]int, t.NumCols())
	for i := range all {
		all[i] = i
	}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(io.Discard, t, all, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWMISExact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := wmis.NewGraph(40)
	for v := 0; v < 40; v++ {
		g.SetWeight(v, float64(1+rng.Intn(100)))
	}
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			if rng.Float64() < 0.15 {
				if err := g.AddEdge(u, v); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wmis.SolveExact(g)
	}
}

func BenchmarkGzipBaseline(b *testing.B) {
	t := datagen.Census(20000, 1)
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gzipref.Compress(t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPzipBaseline(b *testing.B) {
	t := datagen.Census(20000, 1)
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pzipref.Compress(t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryAggregate(b *testing.B) {
	t := datagen.CDR(50000, 1)
	tol := UniformTolerances(t, 0.01, 0)
	q := Query{Agg: Avg, Column: "charge_cents",
		Where: NumCmp("duration_sec", Gt, 200), GroupBy: "plan"}
	b.SetBytes(int64(t.RawSizeBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunQuery(t, tol, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentedQuery runs queries through the archive read path
// (footer, zone-map pruning, segment decode, merge, aggregate) on 64k
// CDR rows ordered by start_hour in 16 segments at 2% tolerance. The
// key-range query decodes the two or three segments its hours fall in;
// the non-key query decodes all 16 and merges them into one table.
func BenchmarkSegmentedQuery(b *testing.B) {
	t := datagen.CDR(64000, 1)
	sorted, err := t.SelectRows(t.LexSortedRows())
	if err != nil {
		b.Fatal(err)
	}
	tol := UniformTolerances(sorted, 0.02, 0)
	var buf bytes.Buffer
	if _, err := CompressArchive(&buf, sorted, Options{Tolerances: tol}, SegmentOptions{SegmentRows: 4000}); err != nil {
		b.Fatal(err)
	}
	a, err := OpenArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	queries := []struct {
		name string
		q    Query
	}{
		{"key_range", Query{Agg: Sum, Column: "duration_sec",
			Where: QAnd(NumCmp("start_hour", Ge, 8), NumCmp("start_hour", Lt, 10))}},
		{"non_key", Query{Agg: Avg, Column: "charge_cents",
			Where: NumCmp("duration_sec", Gt, 200), GroupBy: "plan"}},
	}
	for _, bq := range queries {
		b.Run(bq.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := QueryArchive(a, tol, bq.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
