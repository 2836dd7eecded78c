package archive_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
)

// goldenSegmented pins the exact bytes WriteTableContext writes for 40k
// rows of each generator (seed 7) in 8000-row segments under a uniform 1%
// quantile tolerance. Segments this large reach the 500-fascicle cap and
// the failed-seed path of fascicle growth, which the 4000-row monolithic
// goldens in internal/core mostly do not.
var goldenSegmented = map[string]string{
	"cdr":    "0e628d660c05680ba6b47a6552b600541a4f6b443df968ea1b240dff6113f58e",
	"census": "f252efffb9083f85a2a5a4b74a800f6f79bd1ba5a39a73e4223cdbcf089e3631",
}

// TestGoldenSegmented compresses each table with one and with four
// segment workers; both must produce the pinned hash.
func TestGoldenSegmented(t *testing.T) {
	gens := []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
	}
	for _, g := range gens {
		tb := g.gen(40000, 7)
		opts := core.Options{Tolerances: table.UniformTolerances(tb, 0.01, 0)}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", g.name, workers), func(t *testing.T) {
				var buf bytes.Buffer
				seg := archive.SegmentOptions{SegmentRows: 8000, Workers: workers}
				if _, err := archive.WriteTableContext(context.Background(), &buf, tb, opts, seg); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != goldenSegmented[g.name] {
					t.Errorf("sha256 = %s, want %s", got, goldenSegmented[g.name])
				}
			})
		}
	}
}
