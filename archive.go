package spartan

import (
	"context"
	"io"

	"repro/internal/archive"
)

// Segmented archives: tables far larger than memory compress in bounded
// space by splitting rows into segments. CompressArchive builds one plan
// from a sample of the whole table and applies it to every segment
// concurrently, on a bounded worker pool; every segment is a standalone
// stream that carries its own copy of the plan's models. The archive's
// footer records per-segment byte extents, row counts and zone maps, so
// seekable readers decode segments on demand and queries skip segments
// their predicate provably excludes.

// ArchiveWriter appends independently compressed segments to a stream.
type ArchiveWriter = archive.Writer

// ArchiveReader iterates the segments of an archive as a forward-only
// stream (both the current v2 format and legacy v1 archives).
type ArchiveReader = archive.Reader

// Archive reads a v2 archive through its footer: segments decode on
// demand, and Query prunes segments via zone maps.
type Archive = archive.SegReader

// SegmentOptions shapes how CompressArchive splits rows into segments
// and schedules the parallel compression.
type SegmentOptions = archive.SegmentOptions

// ArchiveStats aggregates per-segment compression statistics.
type ArchiveStats = archive.TableStats

// ArchiveQueryStats reports how much decoding a query's zone-map
// pruning saved.
type ArchiveQueryStats = archive.QueryStats

// FramingError reports a segment whose codec stream did not fill its
// declared frame length.
type FramingError = archive.FramingError

// ErrEmptyArchive is returned when reading a structurally valid archive
// that contains zero segments; test for it with errors.Is.
var ErrEmptyArchive = archive.ErrEmptyArchive

// DefaultSegmentRows is the segment size used when SegmentOptions
// leaves SegmentRows zero.
const DefaultSegmentRows = archive.DefaultSegmentRows

// NewArchiveWriter starts an archive on w; the options apply to every
// segment (prefer absolute tolerances so all segments enforce one
// bound). Use CompressArchive to split and compress a whole table in
// parallel instead of framing segments by hand.
func NewArchiveWriter(w io.Writer, opts Options) (*ArchiveWriter, error) {
	return archive.NewWriter(w, opts)
}

// NewArchiveReader opens an archive for segment-at-a-time streaming.
func NewArchiveReader(r io.Reader) (*ArchiveReader, error) {
	return archive.NewReader(r)
}

// ReadArchive decompresses a whole archive into one table (rows in
// segment order).
func ReadArchive(r io.Reader) (*Table, error) {
	return archive.ReadAll(r)
}

// CompressArchive splits t into row segments and writes a segmented
// archive to w, compressing segments concurrently. The output bytes do
// not depend on the worker count.
func CompressArchive(w io.Writer, t *Table, opts Options, seg SegmentOptions) (*ArchiveStats, error) {
	return archive.WriteTable(w, t, opts, seg)
}

// CompressArchiveContext is CompressArchive with cancellation.
func CompressArchiveContext(ctx context.Context, w io.Writer, t *Table, opts Options, seg SegmentOptions) (*ArchiveStats, error) {
	return archive.WriteTableContext(ctx, w, t, opts, seg)
}

// OpenArchive parses the footer of a seekable v2 archive for on-demand
// segment access and zone-map-pruned queries.
func OpenArchive(r io.ReadSeeker) (*Archive, error) {
	return archive.OpenSegmented(r)
}

// QueryArchive runs q against an opened archive, decoding only the
// segments whose zone maps cannot refute the predicate. Quantile
// tolerances resolve against the archive-wide zone-map ranges, so the
// interval bounds can be wider than running the query over the whole
// decompressed archive would give (see Archive.Query).
func QueryArchive(a *Archive, tol Tolerances, q Query) (*QueryResult, *ArchiveQueryStats, error) {
	return a.Query(tol, q)
}
