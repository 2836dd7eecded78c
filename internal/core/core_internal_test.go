package core

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/table"
)

func TestSplitSample(t *testing.T) {
	tb := datagen.CDR(100, 1)
	build, holdout, err := splitSample(tb)
	if err != nil {
		t.Fatal(err)
	}
	if build.NumRows()+holdout.NumRows() != tb.NumRows() {
		t.Fatalf("split %d+%d != %d", build.NumRows(), holdout.NumRows(), tb.NumRows())
	}
	if holdout.NumRows() != 25 {
		t.Errorf("holdout = %d rows, want 25 (a quarter)", holdout.NumRows())
	}

	// Tiny samples skip the holdout entirely.
	small := datagen.CDR(5, 1)
	b2, h2, err := splitSample(small)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != small || h2 != nil {
		t.Error("tiny sample should not be split")
	}
}

func TestEstimateMaterBits(t *testing.T) {
	// A constant column must cost far less than a random one.
	schema := table.Schema{
		{Name: "const", Kind: table.Numeric},
		{Name: "rand", Kind: table.Numeric},
		{Name: "cat", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	for i := 0; i < 1000; i++ {
		b.MustAppendRow(7.0, float64(i)*1.37+float64(i%97), "v")
	}
	tb := b.MustBuild()
	bits, err := codec.EstimateBitsPerValue(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 3 {
		t.Fatalf("bits = %v", bits)
	}
	if bits[0] >= bits[1] {
		t.Errorf("constant column %g bits/value not cheaper than varying %g", bits[0], bits[1])
	}
	if bits[0] <= 0 || bits[2] <= 0 {
		t.Errorf("floors not applied: %v", bits)
	}
	// Random float column should cost several bits per value.
	if bits[1] < 4 {
		t.Errorf("high-entropy column estimated at %g bits/value", bits[1])
	}
}

func TestRowAggregateAllCategoricalMaterialized(t *testing.T) {
	// Row aggregation with only categorical materialized attributes is a
	// no-op for values but must not fail.
	schema := table.Schema{
		{Name: "a", Kind: table.Categorical},
		{Name: "b", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	for i := 0; i < 300; i++ {
		b.MustAppendRow("x", []string{"p", "q"}[i%2])
	}
	tb := b.MustBuild()
	var buf bytes.Buffer
	stats, err := Compress(&buf, tb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("all-categorical round trip changed table")
	}
	_ = stats
}

func TestCompressRejectsNilAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Compress(&buf, nil, Options{}); err == nil {
		t.Error("Compress accepted nil table")
	}
}

func TestTimingsTotal(t *testing.T) {
	ti := Timings{DependencyFinder: 1, CaRTSelection: 2, OutlierScan: 3, RowAggregation: 4, Encode: 5}
	if ti.Total() != 15 {
		t.Errorf("Total = %d", ti.Total())
	}
}

func TestSelectionStrategyStrings(t *testing.T) {
	if SelectGreedy.String() != "Greedy" ||
		SelectWMISParents.String() != "WMIS(Parent)" ||
		SelectWMISMarkov.String() != "WMIS(Markov)" {
		t.Error("strategy names wrong")
	}
}
