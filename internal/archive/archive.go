// Package archive provides a segmented ("row-group") container for
// SPARTAN streams, so tables far larger than memory compress in bounded
// space and decode with seek-and-prune access: rows arrive in segments,
// each a standalone semantically compressed stream with its own copy of
// the models and its own outliers (WriteTable plans once per table, a
// streaming Writer once per block), and the archive ends in a footer of
// per-segment metadata — byte offset, length, row count and per-column
// zone maps — that lets readers skip segments a predicate provably
// excludes without touching their bodies.
//
// Format v2 ("SPARC2\n"): magic, then for each segment a uvarint byte
// length followed by a standard codec stream; a zero length terminates
// the segment region; then the footer and a fixed-size trailer (see
// docs/FORMAT.md). The body framing is identical to format v1
// ("SPARC1\n"), which had no footer, so the streaming Reader accepts
// both versions. All segments must share one schema (attribute names and
// kinds); categorical dictionaries may differ per segment and are
// re-unified on read.
package archive

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/table"
)

const (
	magicV1 = "SPARC1\n"
	magicV2 = "SPARC2\n"
)

// maxArchiveBytes caps every wire-declared byte extent (1 TiB): an
// offset or length past it is a lie, and bounding the values up front
// keeps later arithmetic on them overflow-free.
const maxArchiveBytes = 1 << 40

// ErrEmptyArchive is returned when reading a structurally valid archive
// that contains zero segments. Writing one is legal (NewWriter + Close,
// or WriteTable on a zero-row table), but no schema was ever recorded,
// so no table can be reconstructed; callers that accept empty archives
// must test for this error with errors.Is.
var ErrEmptyArchive = errors.New("archive: empty archive (no segments)")

// FramingError reports a segment whose codec stream did not fill its
// declared frame length. The trailing slack would desync every later
// frame in a streaming read, so the mismatch is fatal rather than
// skippable.
type FramingError struct {
	Segment  int   // zero-based segment index
	Declared int64 // frame length from the uvarint prefix
	Consumed int64 // bytes the codec stream actually occupied
}

func (e *FramingError) Error() string {
	return fmt.Sprintf("archive: segment %d: codec stream ends after %d of %d declared bytes",
		e.Segment, e.Consumed, e.Declared)
}

// Writer appends independently compressed segments to a v2 archive
// stream, accumulating the footer's per-segment metadata as it goes.
//
// The first write error latches: a frame torn mid-write leaves the
// stream structurally corrupt, so every later WriteBlock and Close
// refuses with the original error instead of appending to garbage.
type Writer struct {
	w      *bufio.Writer
	opts   core.Options
	schema table.Schema
	segs   []SegmentInfo
	off    int64 // stream offset where the next frame's prefix lands
	total  int64 // final archive size, set by Close
	err    error // first write error; sticky
	closed bool
}

// NewWriter starts an archive on w. The options apply to every segment;
// quantile-form tolerances are resolved per segment against that
// segment's value ranges, so prefer absolute tolerances for
// cross-segment consistency.
func NewWriter(w io.Writer, opts core.Options) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magicV2); err != nil {
		return nil, err
	}
	return &Writer{w: bw, opts: opts, off: int64(len(magicV2))}, nil
}

// WriteBlock compresses one segment of rows. Every segment must carry
// the same schema.
func (aw *Writer) WriteBlock(t *table.Table) (*core.Stats, error) {
	if aw.err != nil {
		return nil, aw.err
	}
	if aw.closed {
		return nil, fmt.Errorf("archive: writer is closed")
	}
	if err := noteSchema(&aw.schema, t.Schema()); err != nil {
		return nil, err
	}
	// Vary the sampling seed per segment so pathological segment orderings
	// don't resample identical row offsets; determinism is preserved.
	opts := aw.opts
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	opts.Seed += int64(len(aw.segs))

	var block bytes.Buffer
	stats, err := core.Compress(&block, t, opts)
	if err != nil {
		return nil, err // nothing reached the stream; the writer stays usable
	}
	zones, err := computeZones(t, aw.opts.Tolerances)
	if err != nil {
		return nil, err
	}
	if err := aw.appendFrame(block.Bytes(), t.NumRows(), zones); err != nil {
		return nil, err
	}
	return stats, nil
}

// noteSchema records the archive schema in *have from the first segment
// and rejects drift on later ones.
func noteSchema(have *table.Schema, s table.Schema) error {
	if *have == nil {
		*have = s.Clone()
		return nil
	}
	if err := s.Match(*have); err != nil {
		return fmt.Errorf("archive: segment schema differs: %w", err)
	}
	return nil
}

// appendFrame writes one length-prefixed frame and records its footer
// entry. Any write failure latches into aw.err: the length prefix may
// already be on the wire, so the stream is unrecoverable.
func (aw *Writer) appendFrame(frame []byte, rows int, zones []ZoneMap) error {
	if aw.err != nil {
		return aw.err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(frame)))
	if _, err := aw.w.Write(lenBuf[:n]); err != nil {
		aw.err = fmt.Errorf("archive: writing frame prefix: %w", err)
		return aw.err
	}
	if _, err := aw.w.Write(frame); err != nil {
		aw.err = fmt.Errorf("archive: writing frame: %w", err)
		return aw.err
	}
	aw.segs = append(aw.segs, SegmentInfo{
		Offset: aw.off + int64(n),
		Length: int64(len(frame)),
		Rows:   rows,
		Zones:  zones,
	})
	aw.off += int64(n) + int64(len(frame))
	return nil
}

// Blocks returns how many segments have been written.
func (aw *Writer) Blocks() int { return len(aw.segs) }

// Close writes the terminator, footer and trailer, then flushes. The
// writer cannot be reused. After a latched write error Close performs no
// further writes and surfaces that error instead.
func (aw *Writer) Close() (err error) {
	if aw.closed {
		return aw.err
	}
	aw.closed = true
	if aw.err != nil {
		return aw.err
	}
	defer func() { aw.err = err }()
	if err := aw.w.WriteByte(0); err != nil { // uvarint(0) terminator
		return err
	}
	// Serialize the footer to memory first: the trailer needs its CRC and
	// length, and a footer encoding error must not leave a partial footer
	// on the wire.
	var fbuf bytes.Buffer
	fbw := bufio.NewWriter(&fbuf)
	if err := writeFooter(fbw, aw.schema, aw.segs); err != nil {
		return err
	}
	if err := fbw.Flush(); err != nil {
		return err
	}
	foot := fbuf.Bytes()
	trailer, err := makeTrailer(foot)
	if err != nil {
		return err
	}
	if _, err := aw.w.Write(foot); err != nil {
		return err
	}
	if _, err := aw.w.Write(trailer[:]); err != nil {
		return err
	}
	if err := aw.w.Flush(); err != nil {
		return err
	}
	aw.total = aw.off + 1 + int64(len(foot)) + int64(len(trailer))
	return nil
}

// Reader iterates the segments of an archive as a forward-only stream.
// It accepts both format versions: v1 has no footer, and a v2 footer
// simply follows the terminator the reader stops at.
type Reader struct {
	r      *bufio.Reader
	lim    codec.DecodeLimits
	schema table.Schema
	read   int // frames consumed so far
	done   bool
}

// NewReader opens an archive stream with default decode limits.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderLimited(r, codec.DecodeLimits{})
}

// NewReaderLimited is NewReader with explicit codec decode limits, which
// every segment decode applies.
func NewReaderLimited(r io.Reader, lim codec.DecodeLimits) (*Reader, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magicV2))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("archive: reading magic: %w", err)
	}
	if string(got) != magicV1 && string(got) != magicV2 {
		return nil, fmt.Errorf("archive: bad magic %q", got)
	}
	return &Reader{r: br, lim: lim}, nil
}

// NextFrame returns the next segment's raw compressed bytes, or io.EOF
// after the terminator.
func (ar *Reader) NextFrame() ([]byte, error) {
	if ar.done {
		return nil, io.EOF
	}
	frameLen, err := binary.ReadUvarint(ar.r)
	if err != nil {
		return nil, fmt.Errorf("archive: reading segment length: %w", err)
	}
	if frameLen == 0 {
		ar.done = true
		return nil, io.EOF
	}
	frame, err := readFrameBytes(ar.r, frameLen)
	if err != nil {
		return nil, fmt.Errorf("archive: reading segment %d: %w", ar.read, err)
	}
	ar.read++
	return frame, nil
}

// Next decompresses the next segment, or returns io.EOF after the
// terminator. A frame whose codec stream is shorter than its declared
// length fails with *FramingError.
func (ar *Reader) Next() (*table.Table, error) {
	frame, err := ar.NextFrame()
	if err != nil {
		return nil, err
	}
	t, err := decodeFrame(frame, ar.read-1, ar.lim)
	if err != nil {
		return nil, err
	}
	if err := noteSchema(&ar.schema, t.Schema()); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeFrame decodes one in-memory frame and verifies the codec stream
// fills it exactly: a shorter stream means trailing garbage inside the
// frame (the drain-and-count framing check).
func decodeFrame(frame []byte, idx int, lim codec.DecodeLimits) (*table.Table, error) {
	t, consumed, err := codec.DecodeCounted(bytes.NewReader(frame), lim)
	if err != nil {
		return nil, fmt.Errorf("archive: decoding segment %d: %w", idx, err)
	}
	if consumed < int64(len(frame)) {
		return nil, &FramingError{Segment: idx, Declared: int64(len(frame)), Consumed: consumed}
	}
	return t, nil
}

// readFrameBytes reads exactly n frame bytes, growing the buffer in
// bounded chunks so a lying length prefix cannot force a huge upfront
// allocation: a truncated stream fails after at most one chunk of slack.
func readFrameBytes(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	if n > maxArchiveBytes {
		return nil, fmt.Errorf("implausible segment length %d", n)
	}
	dst := make([]byte, 0, min(n, chunk))
	for uint64(len(dst)) < n {
		want := min(n-uint64(len(dst)), chunk)
		start := len(dst)
		dst = append(dst, make([]byte, want)...)
		if _, err := io.ReadFull(r, dst[start:]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// decodeFrames decodes every frame concurrently and returns the tables
// in frame order. The semaphore caps concurrent decodes at GOMAXPROCS,
// which bounds the CPU they take and how many decode working sets
// (inflated T', rebuilt models) are live at once. It does not bound the
// decoded segments: every one stays live until the caller merges them.
func decodeFrames(frames [][]byte, lim codec.DecodeLimits) ([]*table.Table, error) {
	tables := make([]*table.Table, len(frames))
	errs := make([]error, len(frames))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range frames {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			tables[i], errs[i] = decodeFrame(frames[i], i, lim)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// ReadAll decompresses every segment (concurrently, bounded at
// GOMAXPROCS) and merges their rows in segment order into one table,
// column by column (table.Concat). Peak memory is every compressed
// frame, plus every decoded segment, plus the merged table. A
// structurally valid archive with zero segments returns ErrEmptyArchive.
func ReadAll(r io.Reader) (*table.Table, error) {
	return ReadAllLimited(r, codec.DecodeLimits{})
}

// ReadAllLimited is ReadAll with explicit codec decode limits.
func ReadAllLimited(r io.Reader, lim codec.DecodeLimits) (*table.Table, error) {
	ar, err := NewReaderLimited(r, lim)
	if err != nil {
		return nil, err
	}
	var frames [][]byte
	for {
		frame, err := ar.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		frames = append(frames, frame)
	}
	if len(frames) == 0 {
		return nil, ErrEmptyArchive
	}
	tables, err := decodeFrames(frames, lim)
	if err != nil {
		return nil, err
	}
	return table.Concat(tables...)
}
