package archive

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
)

// TestReadAllAllocsFlatInRows checks that SegReader.ReadAll allocates
// nothing per decoded cell: segment decode and the merge into one table
// work column by column. Allocations still grow a little with the rows
// (more fascicles and outliers to decode, slices that double), so the
// bound allows one allocation per 100 added cells; boxing every cell on
// the way into a merged table costs about one per cell.
func TestReadAllAllocsFlatInRows(t *testing.T) {
	const small, large, segments = 1000, 16000, 4
	readAll := func(n int) (func(), int) {
		tb := datagen.CDR(n, 1)
		var buf bytes.Buffer
		opts := core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)}
		if _, err := WriteTable(&buf, tb, opts, SegmentOptions{SegmentRows: n / segments}); err != nil {
			t.Fatal(err)
		}
		sr, err := OpenSegmented(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := sr.ReadAll(); err != nil {
				t.Fatal(err)
			}
		}, n * tb.NumCols()
	}
	readSmall, cellsSmall := readAll(small)
	readLarge, cellsLarge := readAll(large)
	allocsSmall := testing.AllocsPerRun(5, readSmall)
	allocsLarge := testing.AllocsPerRun(5, readLarge)
	if added := float64(cellsLarge - cellsSmall); allocsLarge-allocsSmall > added/100 {
		t.Errorf("ReadAll allocates %.0f times for %d cells and %.0f times for %d: more than one per 100 added cells",
			allocsSmall, cellsSmall, allocsLarge, cellsLarge)
	}
}
