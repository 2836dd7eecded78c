package archive

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// prunableTable builds a table whose halves occupy disjoint numeric
// ranges and categorical domains, so a 2-segment split gives zone maps
// that can refute half-targeting predicates.
func prunableTable(t *testing.T, rowsPerHalf int) *table.Table {
	t.Helper()
	b, err := table.NewBuilder(table.Schema{
		{Name: "v", Kind: table.Numeric},
		{Name: "w", Kind: table.Numeric},
		{Name: "region", Kind: table.Categorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rowsPerHalf; i++ {
		b.MustAppendRow(float64(i%10), float64(i%7)*3.5, "east")
	}
	for i := 0; i < rowsPerHalf; i++ {
		b.MustAppendRow(1000+float64(i%10), float64(i%7)*3.5, "west")
	}
	tb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestWriteTableRoundTrip(t *testing.T) {
	tb := datagen.CDR(2500, 7)
	var buf bytes.Buffer
	stats, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 600})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 5 {
		t.Errorf("segments = %d, want 5", stats.Segments)
	}
	if stats.Rows != tb.NumRows() {
		t.Errorf("rows = %d, want %d", stats.Rows, tb.NumRows())
	}
	if stats.CompressedBytes != buf.Len() {
		t.Errorf("CompressedBytes = %d, archive is %d bytes", stats.CompressedBytes, buf.Len())
	}
	// Streaming read path.
	back, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("streaming round trip changed the table")
	}
	// Footer-driven read path.
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumSegments() != 5 || sr.TotalRows() != tb.NumRows() {
		t.Errorf("footer: %d segments / %d rows, want 5 / %d", sr.NumSegments(), sr.TotalRows(), tb.NumRows())
	}
	back2, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back2) {
		t.Error("footer round trip changed the table")
	}
	// Per-segment decode agrees with the footer's row counts.
	for i := 0; i < sr.NumSegments(); i++ {
		seg, err := sr.Segment(i)
		if err != nil {
			t.Fatal(err)
		}
		if seg.NumRows() != sr.Info(i).Rows {
			t.Errorf("segment %d: %d rows, footer says %d", i, seg.NumRows(), sr.Info(i).Rows)
		}
	}
}

// TestParallelDeterminism: the archive bytes must not depend on the
// worker count.
func TestParallelDeterminism(t *testing.T) {
	tb := datagen.CDR(2000, 11)
	write := func(workers int) []byte {
		var buf bytes.Buffer
		if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 500, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(write(1), write(4)) {
		t.Fatal("parallel archive bytes differ from sequential")
	}
}

// TestWriteTablePlansOnce: a segmented write builds its models once, from
// the whole table, and applies them to every segment. Each segment must
// still decode within the tolerances resolved against its own rows,
// down to a 1-row trailing segment.
func TestWriteTablePlansOnce(t *testing.T) {
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
		t.Run(g.name, func(t *testing.T) {
			tb := g.gen(1501, 5)
			tol := table.UniformTolerances(tb, 0.02, 0.05)
			tr := obs.NewTrace("write")
			var buf bytes.Buffer
			stats, err := WriteTableContext(context.Background(), &buf, tb,
				core.Options{Tolerances: tol, Trace: tr}, SegmentOptions{SegmentRows: 500})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Segments != 4 {
				t.Fatalf("segments = %d, want 4", stats.Segments)
			}
			spans := map[string]int{}
			for _, sp := range tr.Spans() {
				spans[sp.Name]++
			}
			for name, want := range map[string]int{
				core.SpanDependencyFinder: 1, core.SpanCaRTSelection: 1,
				core.SpanRowAggregation: 4, core.SpanOutlierScan: 4, core.SpanEncode: 4,
			} {
				if spans[name] != want {
					t.Errorf("%d %s spans, want %d", spans[name], name, want)
				}
			}
			for i, st := range stats.PerSegment {
				if !slices.Equal(st.Predicted, stats.PerSegment[0].Predicted) {
					t.Errorf("segment %d predicts %v, segment 0 %v", i, st.Predicted, stats.PerSegment[0].Predicted)
				}
				if st.CartsBuilt != 0 || st.Timings.DependencyFinder != 0 || st.Timings.CaRTSelection != 0 {
					t.Errorf("segment %d stats carry plan figures: %+v", i, st)
				}
			}
			sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			blocks := splitBlocks(t, tb, 500)
			if n := blocks[len(blocks)-1].NumRows(); n != 1 {
				t.Fatalf("trailing segment has %d rows, want 1", n)
			}
			for i, orig := range blocks {
				back, err := sr.Segment(i)
				if err != nil {
					t.Fatal(err)
				}
				resolved, err := tol.Resolve(orig)
				if err != nil {
					t.Fatal(err)
				}
				checkWithin(t, i, orig, back, resolved)
			}
		})
	}
}

// checkWithin fails the test unless every numeric value of back lies
// within its resolved tolerance of orig, and no categorical column has
// more mismatches than its probability budget allows.
func checkWithin(t *testing.T, seg int, orig, back *table.Table, resolved table.Tolerances) {
	t.Helper()
	if back.NumRows() != orig.NumRows() {
		t.Fatalf("segment %d: %d rows, want %d", seg, back.NumRows(), orig.NumRows())
	}
	for c := 0; c < orig.NumCols(); c++ {
		wrong := 0
		for r := 0; r < orig.NumRows(); r++ {
			if orig.Attr(c).Kind == table.Numeric {
				if d := math.Abs(orig.Float(r, c) - back.Float(r, c)); d > resolved[c].Value+1e-9 {
					t.Errorf("segment %d row %d %s: off by %g, tolerance %g", seg, r, orig.Attr(c).Name, d, resolved[c].Value)
				}
			} else if orig.CatString(r, c) != back.CatString(r, c) {
				wrong++
			}
		}
		if budget := int(resolved[c].Value * float64(orig.NumRows())); orig.Attr(c).Kind == table.Categorical && wrong > budget {
			t.Errorf("segment %d %s: %d mismatches, budget %d", seg, orig.Attr(c).Name, wrong, budget)
		}
	}
}

// TestWriteTableHugeSegmentRows: a SegmentRows near math.MaxInt must put
// the whole table in one segment, not overflow the segment count to zero
// and write an empty archive.
func TestWriteTableHugeSegmentRows(t *testing.T) {
	tb := datagen.CDR(100, 3)
	var buf bytes.Buffer
	stats, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: math.MaxInt})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 1 {
		t.Fatalf("segments = %d, want 1", stats.Segments)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumSegments() != 1 || sr.Info(0).Rows != tb.NumRows() {
		t.Fatalf("footer: %d segments, first holds %d rows; want 1 holding %d", sr.NumSegments(), sr.Info(0).Rows, tb.NumRows())
	}
	back, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("round trip changed the table")
	}
}

func TestZoneMapPruning(t *testing.T) {
	tb := prunableTable(t, 300)
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{}, SegmentOptions{SegmentRows: 300}); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	full, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		where      query.Predicate
		wantPruned int
	}{
		{"numeric refutes first half", query.NumCmp("v", query.Gt, 500), 1},
		{"numeric refutes second half", query.NumCmp("v", query.Lt, 500), 1},
		{"numeric refutes nothing", query.NumCmp("w", query.Ge, 0), 0},
		{"categorical refutes first half", query.CatIn("region", "west"), 1},
		{"conjunction refutes both halves", query.And(query.NumCmp("v", query.Gt, 100), query.NumCmp("v", query.Lt, 900)), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := query.Query{Agg: query.Sum, Column: "w", Where: tc.where}
			res, qs, err := sr.Query(nil, q)
			if err != nil {
				t.Fatal(err)
			}
			if qs.Pruned != tc.wantPruned {
				t.Errorf("pruned %d segments, want %d (stats %+v)", qs.Pruned, tc.wantPruned, qs)
			}
			if qs.Pruned+qs.Decoded != qs.Segments {
				t.Errorf("pruned %d + decoded %d != %d segments", qs.Pruned, qs.Decoded, qs.Segments)
			}
			want, err := query.Run(full, nil, q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, res, want)
		})
	}
}

// TestZoneMapPruningLossy: pruning under a nonzero numeric tolerance
// must match the full-decode answer, including its uncertainty bounds.
func TestZoneMapPruningLossy(t *testing.T) {
	tb := prunableTable(t, 300)
	tol := table.Tolerances{{Value: 0.5}, {Value: 0.5}, {}}
	var buf bytes.Buffer
	if _, err := WriteTable(&buf, tb, core.Options{Tolerances: tol}, SegmentOptions{SegmentRows: 300}); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	full, err := sr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	q := query.Query{Agg: query.Sum, Column: "w", Where: query.NumCmp("v", query.Gt, 500)}
	res, qs, err := sr.Query(tol, q)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Pruned != 1 {
		t.Errorf("pruned %d segments, want 1", qs.Pruned)
	}
	want, err := query.Run(full, tol, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, want)
}

func assertSameResult(t *testing.T, got, want *query.Result) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("got %d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for i := range got.Groups {
		g, w := got.Groups[i], want.Groups[i]
		if g != w {
			t.Errorf("group %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestFramingGarbage (framing bugfix): a frame whose declared length
// exceeds its codec stream must fail with FramingError instead of
// silently desyncing the reader on the trailing garbage.
func TestFramingGarbage(t *testing.T) {
	tb := datagen.CDR(200, 5)
	var stream bytes.Buffer
	if _, err := core.Compress(&stream, tb, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// Hand-frame an archive whose single frame is the valid codec stream
	// padded with trailing garbage, all inside the declared length.
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	data := []byte(magicV2)
	data = binary.AppendUvarint(data, uint64(stream.Len()+len(garbage)))
	data = append(data, stream.Bytes()...)
	data = append(data, garbage...)
	data = append(data, 0)

	_, err := ReadAll(bytes.NewReader(data))
	var fe *FramingError
	if !errors.As(err, &fe) {
		t.Fatalf("ReadAll = %v, want FramingError", err)
	}
	if fe.Segment != 0 || fe.Declared != int64(stream.Len()+len(garbage)) || fe.Consumed != int64(stream.Len()) {
		t.Errorf("FramingError = %+v, want segment 0, declared %d, consumed %d",
			fe, stream.Len()+len(garbage), stream.Len())
	}
	// A correctly framed stream still decodes.
	ok := []byte(magicV2)
	ok = binary.AppendUvarint(ok, uint64(stream.Len()))
	ok = append(ok, stream.Bytes()...)
	ok = append(ok, 0)
	back, err := ReadAll(bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("hand-framed archive round trip changed the table")
	}
}

// failAfterWriter fails every Write once n bytes have passed through.
type failAfterWriter struct {
	n    int
	seen int
}

var errInjected = errors.New("injected write failure")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.seen >= w.n {
		return 0, errInjected
	}
	w.seen += len(p)
	return len(p), nil
}

// TestWriterStickyError (torn-write bugfix): after a failed frame write
// the Writer must refuse further writes and surface the original error
// from Close, instead of appending frames to a torn stream.
func TestWriterStickyError(t *testing.T) {
	aw, err := NewWriter(&failAfterWriter{n: len(magicV2)}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Large enough to overflow the bufio buffer and hit the sink.
	block := datagen.CDR(2000, 3)
	if _, err := aw.WriteBlock(block); !errors.Is(err, errInjected) {
		t.Fatalf("WriteBlock = %v, want injected failure", err)
	}
	if _, err := aw.WriteBlock(block); !errors.Is(err, errInjected) {
		t.Fatalf("second WriteBlock = %v, want latched injected failure", err)
	}
	if err := aw.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want latched injected failure", err)
	}
	if err := aw.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("second Close = %v, want latched injected failure", err)
	}
}

// TestEmptyArchive (zero-segment bugfix): writing an empty archive is
// legal and round-trips to the typed ErrEmptyArchive on every read path
// that must materialize rows.
func TestEmptyArchive(t *testing.T) {
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrEmptyArchive) {
		t.Errorf("ReadAll = %v, want ErrEmptyArchive", err)
	}
	sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumSegments() != 0 || sr.TotalRows() != 0 {
		t.Errorf("empty archive reports %d segments / %d rows", sr.NumSegments(), sr.TotalRows())
	}
	if _, err := sr.ReadAll(); !errors.Is(err, ErrEmptyArchive) {
		t.Errorf("SegReader.ReadAll = %v, want ErrEmptyArchive", err)
	}
	if _, _, err := sr.Query(nil, query.Query{Agg: query.Count}); !errors.Is(err, ErrEmptyArchive) {
		t.Errorf("SegReader.Query = %v, want ErrEmptyArchive", err)
	}
	// The streaming reader's Next reports plain EOF (no rows is only an
	// error when a caller asks for a merged table).
	ar, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ar.Next(); err != io.EOF {
		t.Errorf("Next on empty archive = %v, want io.EOF", err)
	}
}

// TestV1ReadCompat: the streaming reader still decodes v1 archives
// (magic "SPARC1\n", same framing, no footer).
func TestV1ReadCompat(t *testing.T) {
	tb := datagen.CDR(900, 9)
	blocks := splitBlocks(t, tb, 300)
	data := []byte(magicV1)
	for i, block := range blocks {
		var stream bytes.Buffer
		opts := core.Options{Seed: 1 + int64(i)} // v1 writer's per-block seed rule
		if _, err := core.Compress(&stream, block, opts); err != nil {
			t.Fatal(err)
		}
		data = binary.AppendUvarint(data, uint64(stream.Len()))
		data = append(data, stream.Bytes()...)
	}
	data = append(data, 0)

	back, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !table.Equal(tb, back) {
		t.Error("v1 archive round trip changed the table")
	}
	if _, err := OpenSegmented(bytes.NewReader(data)); err == nil {
		t.Error("OpenSegmented accepted a v1 archive (it has no footer)")
	}
}

// TestWriteTableEmpty: a zero-row table produces a legal empty archive.
func TestWriteTableEmpty(t *testing.T) {
	b, err := table.NewBuilder(table.Schema{{Name: "x", Kind: table.Numeric}})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	stats, err := WriteTable(&buf, empty, core.Options{}, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Segments != 0 {
		t.Errorf("segments = %d, want 0", stats.Segments)
	}
	if stats.CompressedBytes != buf.Len() {
		t.Errorf("CompressedBytes = %d, archive is %d bytes", stats.CompressedBytes, buf.Len())
	}
	if _, err := ReadAll(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrEmptyArchive) {
		t.Errorf("ReadAll = %v, want ErrEmptyArchive", err)
	}
}

// TestSegmentedCancel: a cancelled context abandons the parallel write.
func TestSegmentedCancel(t *testing.T) {
	tb := datagen.CDR(3000, 13)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WriteTableContext(ctx, io.Discard, tb, core.Options{}, SegmentOptions{SegmentRows: 300}); err == nil {
		t.Fatal("WriteTableContext succeeded with a cancelled context")
	}
}
