// Segment-parallel archive construction and footer-driven reading.
// WriteTable builds one SPARTAN plan (sample, network, CaRT selection)
// from the whole table and applies it to each row segment (row
// aggregation, outlier scan, encode) on a bounded worker pool, while a
// single writer goroutine appends frames strictly in segment order, so
// the output bytes are identical at any worker count. SegReader opens
// the footer of a seekable v2 archive and decodes segment bodies on
// demand, letting Query skip segments whose zone maps refute the
// predicate.
package archive

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/table"
)

// DefaultSegmentRows is the segment size used when SegmentOptions leaves
// SegmentRows zero. Large enough that per-segment model overhead (each
// segment carries its own dictionaries and CaRTs) stays small against
// the compressed payload, small enough that a handful of segments fit in
// memory during parallel compression.
const DefaultSegmentRows = 64 << 10

// SegmentOptions shapes how WriteTable splits and schedules work.
type SegmentOptions struct {
	// SegmentRows is the target rows per segment; zero selects
	// DefaultSegmentRows. The final segment holds the remainder.
	SegmentRows int
	// Workers bounds how many segments compress concurrently; zero
	// selects GOMAXPROCS. The output bytes do not depend on it.
	Workers int
}

func (o SegmentOptions) withDefaults() SegmentOptions {
	if o.SegmentRows <= 0 {
		o.SegmentRows = DefaultSegmentRows
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// TableStats aggregates per-segment compression statistics.
type TableStats struct {
	Segments        int
	Rows            int
	RawBytes        int
	CompressedBytes int     // total archive size incl. framing and footer
	Ratio           float64 // CompressedBytes / RawBytes
	Outliers        int
	PerSegment      []*core.Stats
}

// segResult carries one compressed segment from a worker to the writer.
type segResult struct {
	frame []byte
	rows  int
	zones []ZoneMap
	stats *core.Stats
	err   error
}

// WriteTable compresses t into a segmented v2 archive on w. It is
// WriteTableContext with a background context.
func WriteTable(w io.Writer, t *table.Table, opts core.Options, seg SegmentOptions) (*TableStats, error) {
	return WriteTableContext(context.Background(), w, t, opts, seg)
}

// WriteTableContext builds one plan from a sample of the whole table
// (core.NewPlan) and applies it to t's row segments concurrently
// (bounded by seg.Workers), writing frames in segment order. Quantile
// tolerances resolve against each segment's own rows. Any worker count,
// including 1, produces identical bytes. Cancelling ctx abandons
// in-flight segments and returns.
func WriteTableContext(ctx context.Context, w io.Writer, t *table.Table, opts core.Options, seg SegmentOptions) (*TableStats, error) {
	if t == nil || t.NumCols() == 0 {
		return nil, fmt.Errorf("archive: nil or empty table")
	}
	rows := t.NumRows()
	seg = seg.withDefaults()
	// Round up by remainder, not by adding SegmentRows−1, which overflows
	// for a SegmentRows near math.MaxInt.
	nseg := rows / seg.SegmentRows
	if rows%seg.SegmentRows != 0 {
		nseg++
	}

	aw, err := NewWriter(w, opts)
	if err != nil {
		return nil, err
	}
	if nseg == 0 {
		// A zero-row table yields a legal empty archive; readers report
		// ErrEmptyArchive because no segment ever recorded the schema.
		if err := aw.Close(); err != nil {
			return nil, err
		}
		return &TableStats{CompressedBytes: int(aw.total)}, nil
	}
	if err := noteSchema(&aw.schema, t.Schema()); err != nil {
		return nil, err
	}
	plan, err := core.NewPlan(ctx, t, opts)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each result channel is buffered so a finished worker never blocks:
	// the writer drains them strictly in order, and after an error the
	// unread buffers are simply garbage-collected.
	results := make([]chan segResult, nseg)
	for i := range results {
		results[i] = make(chan segResult, 1)
	}
	sem := make(chan struct{}, seg.Workers)
	go func() {
		for i := 0; i < nseg; i++ {
			select {
			case <-cctx.Done():
				for j := i; j < nseg; j++ {
					results[j] <- segResult{err: cctx.Err()}
				}
				return
			case sem <- struct{}{}:
			}
			go func(i int) {
				defer func() { <-sem }()
				results[i] <- compressSegment(cctx, plan, t, i*seg.SegmentRows, seg.SegmentRows, opts.Tolerances)
			}(i)
		}
	}()

	stats := &TableStats{Segments: nseg, Rows: rows, RawBytes: t.RawSizeBytes()}
	for i := 0; i < nseg; i++ {
		res := <-results[i]
		if res.err != nil {
			return nil, fmt.Errorf("archive: segment %d: %w", i, res.err)
		}
		if err := aw.appendFrame(res.frame, res.rows, res.zones); err != nil {
			return nil, err
		}
		stats.Outliers += res.stats.Outliers
		stats.PerSegment = append(stats.PerSegment, res.stats)
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	stats.CompressedBytes = int(aw.total)
	if stats.RawBytes > 0 {
		stats.Ratio = float64(stats.CompressedBytes) / float64(stats.RawBytes)
	}
	return stats, nil
}

// compressSegment applies plan to the n rows of t from lo (fewer in the
// last segment) and frames the result. It only reads t and plan, so
// segments compress concurrently over one shared table.
func compressSegment(ctx context.Context, plan *core.Plan, t *table.Table, lo, n int, tol table.Tolerances) segResult {
	sel := make([]int, min(n, t.NumRows()-lo))
	for i := range sel {
		sel[i] = lo + i
	}
	part, err := t.SelectRows(sel)
	if err != nil {
		return segResult{err: err}
	}
	var frame bytes.Buffer
	stats, err := plan.Apply(ctx, &frame, part)
	if err != nil {
		return segResult{err: err}
	}
	zones, err := computeZones(part, tol)
	return segResult{frame: frame.Bytes(), rows: part.NumRows(), zones: zones, stats: stats, err: err}
}

// SegReader reads a v2 archive through its footer: segments decode on
// demand by index, and Query consults zone maps to skip segments a
// predicate refutes. Methods that touch the underlying stream share its
// seek position and must not be called concurrently.
type SegReader struct {
	r      io.ReadSeeker
	lim    codec.DecodeLimits
	schema table.Schema
	segs   []SegmentInfo
	size   int64
	rows   int
	closed bool
}

// ErrReaderClosed is returned by segment reads attempted after Close.
var ErrReaderClosed = errors.New("archive: reader is closed")

// Close releases the reader. When the underlying stream is itself an
// io.Closer — an *os.File, a network body — it is closed too; an
// in-memory reader just drops the reference. Close is idempotent and
// nil-receiver-safe: second and later calls, and calls on a nil
// reader, return nil. Reads after Close fail with ErrReaderClosed.
func (sr *SegReader) Close() error {
	if sr == nil || sr.closed {
		return nil
	}
	sr.closed = true
	r := sr.r
	sr.r = nil
	if c, ok := r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// OpenSegmented parses the footer of a seekable v2 archive with default
// decode limits. v1 archives have no footer; read them with NewReader.
func OpenSegmented(r io.ReadSeeker) (*SegReader, error) {
	return OpenSegmentedLimited(r, codec.DecodeLimits{})
}

// OpenSegmentedLimited is OpenSegmented with explicit decode limits,
// applied to the footer parse and every segment decode.
func OpenSegmentedLimited(r io.ReadSeeker, lim codec.DecodeLimits) (*SegReader, error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	got := make([]byte, len(magicV2))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("archive: reading magic: %w", err)
	}
	if string(got) == magicV1 {
		return nil, fmt.Errorf("archive: v1 archive has no footer; use NewReader")
	}
	if string(got) != magicV2 {
		return nil, fmt.Errorf("archive: bad magic %q", got)
	}
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	// Smallest legal archive: magic, terminator byte, empty footer, trailer.
	if size < int64(len(magicV2))+1+int64(trailerSize) {
		return nil, fmt.Errorf("archive: %d bytes is too short for a v2 archive", size)
	}
	if _, err := r.Seek(size-int64(trailerSize), io.SeekStart); err != nil {
		return nil, err
	}
	var tr [trailerSize]byte
	if _, err := io.ReadFull(r, tr[:]); err != nil {
		return nil, fmt.Errorf("archive: reading trailer: %w", err)
	}
	if string(tr[8:]) != endMagic {
		return nil, fmt.Errorf("archive: bad end magic %q (truncated or not a v2 archive)", tr[8:])
	}
	wantCRC := binary.LittleEndian.Uint32(tr[0:4])
	footLen := int64(binary.LittleEndian.Uint32(tr[4:8]))
	if footLen > maxFooterBytes || footLen > size-int64(trailerSize)-int64(len(magicV2))-1 {
		return nil, fmt.Errorf("archive: trailer claims %d-byte footer in %d-byte archive", footLen, size)
	}
	if _, err := r.Seek(size-int64(trailerSize)-footLen, io.SeekStart); err != nil {
		return nil, err
	}
	foot, err := readFrameBytes(r, uint64(footLen))
	if err != nil {
		return nil, fmt.Errorf("archive: reading footer: %w", err)
	}
	if got := crc32.ChecksumIEEE(foot); got != wantCRC {
		return nil, fmt.Errorf("archive: footer checksum mismatch (want %08x, got %08x)", wantCRC, got)
	}
	schema, segs, err := readFooter(bufio.NewReader(bytes.NewReader(foot)), size, lim)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, seg := range segs {
		if seg.Rows > math.MaxInt-total {
			return nil, fmt.Errorf("archive: footer row counts overflow")
		}
		total += seg.Rows
	}
	return &SegReader{r: r, lim: lim, schema: schema, segs: segs, size: size, rows: total}, nil
}

// Schema returns the archive schema (nil for an empty archive).
func (sr *SegReader) Schema() table.Schema { return sr.schema }

// NumSegments returns how many segments the footer records.
func (sr *SegReader) NumSegments() int { return len(sr.segs) }

// Info returns the footer entry for segment i.
func (sr *SegReader) Info(i int) SegmentInfo { return sr.segs[i] }

// TotalRows returns the archive-wide row count from the footer.
func (sr *SegReader) TotalRows() int { return sr.rows }

// frame reads segment i's raw compressed bytes.
func (sr *SegReader) frame(i int) ([]byte, error) {
	if sr.closed {
		return nil, ErrReaderClosed
	}
	seg := sr.segs[i]
	if _, err := sr.r.Seek(seg.Offset, io.SeekStart); err != nil {
		return nil, err
	}
	frame, err := readFrameBytes(sr.r, uint64(seg.Length))
	if err != nil {
		return nil, fmt.Errorf("archive: reading segment %d: %w", i, err)
	}
	return frame, nil
}

// Segment decodes segment i, verifying its frame against the footer.
func (sr *SegReader) Segment(i int) (*table.Table, error) {
	frame, err := sr.frame(i)
	if err != nil {
		return nil, err
	}
	t, err := decodeFrame(frame, i, sr.lim)
	if err != nil {
		return nil, err
	}
	if t.NumRows() != sr.segs[i].Rows {
		return nil, fmt.Errorf("archive: segment %d decoded %d rows, footer records %d", i, t.NumRows(), sr.segs[i].Rows)
	}
	return t, nil
}

// ReadAll decodes every segment (concurrently, bounded at GOMAXPROCS)
// and merges their rows in segment order into one table, column by
// column (table.Concat). Peak memory is every compressed frame, plus
// every decoded segment, plus the merged table. An empty archive returns
// ErrEmptyArchive.
func (sr *SegReader) ReadAll() (*table.Table, error) {
	if len(sr.segs) == 0 {
		return nil, ErrEmptyArchive
	}
	all := make([]int, len(sr.segs))
	for i := range all {
		all[i] = i
	}
	return sr.readMerged(all)
}

// readMerged decodes segments idx concurrently, checks each against its
// footer row count, and merges their rows in order with table.Concat.
func (sr *SegReader) readMerged(idx []int) (*table.Table, error) {
	frames := make([][]byte, len(idx))
	for k, i := range idx {
		var err error
		if frames[k], err = sr.frame(i); err != nil {
			return nil, err
		}
	}
	tables, err := decodeFrames(frames, sr.lim)
	if err != nil {
		return nil, err
	}
	for k, t := range tables {
		if i := idx[k]; t.NumRows() != sr.segs[i].Rows {
			return nil, fmt.Errorf("archive: segment %d decoded %d rows, footer records %d", i, t.NumRows(), sr.segs[i].Rows)
		}
	}
	return table.Concat(tables...)
}

// QueryStats reports how much decoding a query's zone-map pruning saved.
type QueryStats struct {
	Segments    int // segments in the archive
	Decoded     int // segments whose bodies were decompressed
	Pruned      int // segments skipped because their zones refuted Where
	RowsDecoded int
	RowsPruned  int
}

// Query runs q against the archive, decoding only segments whose zone
// maps cannot refute the WHERE predicate. The query evaluates with the
// archive-wide row count and value bounds in scope. Tolerances (quantile
// forms included) resolve against the archive-wide zone-map ranges: the
// union of every segment's tolerance-widened zones. Those ranges are
// usually wider than the decoded table's, so a quantile tolerance can
// resolve to a larger absolute value here than in a full decode, and
// the interval bounds (Lo/Hi) can be wider than querying the whole
// decoded table would give.
//
// The segments that survive pruning decode concurrently (bounded at
// GOMAXPROCS) and merge into one table (table.Concat) before the query
// runs, so peak memory is their compressed frames, plus the decoded
// segments, plus the merged table.
func (sr *SegReader) Query(tol table.Tolerances, q query.Query) (*query.Result, *QueryStats, error) {
	if sr.closed {
		return nil, nil, ErrReaderClosed
	}
	if len(sr.segs) == 0 {
		return nil, nil, ErrEmptyArchive
	}
	colIdx := make(map[string]int, len(sr.schema))
	for i, a := range sr.schema {
		colIdx[a.Name] = i
	}
	// Archive-wide value bounds: the union of the (tolerance-widened)
	// segment zones. Resolving quantile tolerances against these instead
	// of a pruned subset's narrower ranges keeps the bounds independent
	// of which segments the predicate prunes.
	scope := &query.Scope{TotalRows: sr.rows, Ranges: make(map[string][2]float64)}
	ranges := make([]float64, len(sr.schema))
	for i, a := range sr.schema {
		if a.Kind != table.Numeric {
			continue
		}
		lo, hi := sr.segs[0].Zones[i].Min, sr.segs[0].Zones[i].Max
		for _, seg := range sr.segs[1:] {
			lo = math.Min(lo, seg.Zones[i].Min)
			hi = math.Max(hi, seg.Zones[i].Max)
		}
		scope.Ranges[a.Name] = [2]float64{lo, hi}
		ranges[i] = hi - lo
	}
	if tol == nil {
		tol = make(table.Tolerances, len(sr.schema))
	}
	resolved, err := tol.ResolveRanges(sr.schema, ranges)
	if err != nil {
		return nil, nil, err
	}
	tolMap := make(map[string]float64, len(sr.schema))
	for i, a := range sr.schema {
		tolMap[a.Name] = resolved[i].Value
	}

	stats := &QueryStats{Segments: len(sr.segs)}
	var kept []int
	for i, seg := range sr.segs {
		zones := func(column string) (query.ColumnZone, bool) {
			c, ok := colIdx[column]
			if !ok {
				return query.ColumnZone{}, false
			}
			z := seg.Zones[c]
			if sr.schema[c].Kind == table.Numeric {
				return query.ColumnZone{Kind: table.Numeric, Lo: z.Min, Hi: z.Max}, true
			}
			return query.ColumnZone{Kind: table.Categorical, MayContain: z.MayContain}, true
		}
		if query.CanMatch(q.Where, zones, tolMap) {
			kept = append(kept, i)
			stats.Decoded++
			stats.RowsDecoded += seg.Rows
		} else {
			stats.Pruned++
			stats.RowsPruned += seg.Rows
		}
	}

	var t *table.Table
	if len(kept) == 0 {
		// Every segment refuted: query an empty table with the footer
		// schema so validation and group synthesis still run.
		cols := make([]*table.Column, len(sr.schema))
		for i, a := range sr.schema {
			cols[i] = &table.Column{Kind: a.Kind}
		}
		if t, err = table.New(sr.schema.Clone(), cols); err != nil {
			return nil, nil, err
		}
	} else if t, err = sr.readMerged(kept); err != nil {
		return nil, nil, err
	}
	res, err := query.RunScoped(t, tol, q, scope)
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}
