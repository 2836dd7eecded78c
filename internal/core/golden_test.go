package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
)

// goldenArchives pins the exact bytes core.Compress writes for each
// generator at 4000 rows, seed 7, under uniform quantile tolerances.
// A change that alters any archive must show up here as a hash diff.
var goldenArchives = map[string]string{
	"cdr/0.01":    "fc65e27548040c9878e589a2171dd6b1f1868e0a75f169bbcd5a959f98d58e53",
	"cdr/0.05":    "fc842cc842ae09063e52efca44c56f0242b0ce6fc48b7c928568e1572588ef2a",
	"census/0.01": "abf5e37545fd249572b8c07b58d8a43cd1db625281307b871aff506a013b48bc",
	"census/0.05": "01a8b5975c042134cd60d12a214155693ef93056acceb1547164f6dac18b3b48",
	"corel/0.01":  "558892e9d4d751ee43697f7a590d2358704db1f40d456c78ceee4c9bcc68ae8c",
	"corel/0.05":  "c8afb29ab4e8338eeda8bb1d6655f4c783a9e91759d01afa654a2689e4a0ef11",
	"forest/0.01": "523a1c676e9356397df384aaf93a619acdb49624b42b11ce2bb1bfe16a216c57",
	"forest/0.05": "93ca13f6c7d167e37d24126c9f5e4aaeb441990768e2f217810c2426630289b9",
}

// TestGoldenArchives compresses every generator at two tolerances and
// compares the SHA-256 of the output against the pinned hashes.
func TestGoldenArchives(t *testing.T) {
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
		tb := g.gen(4000, 7)
		for _, frac := range []float64{0.01, 0.05} {
			name := fmt.Sprintf("%s/%g", g.name, frac)
			t.Run(name, func(t *testing.T) {
				var buf bytes.Buffer
				opts := core.Options{Tolerances: table.UniformTolerances(tb, frac, 0)}
				if _, err := core.Compress(&buf, tb, opts); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != goldenArchives[name] {
					t.Errorf("sha256 = %s, want %s", got, goldenArchives[name])
				}
			})
		}
	}
}
