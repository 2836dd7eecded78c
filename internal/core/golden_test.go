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

// goldenStrategyArchives pins the same inputs under the two selection
// strategies goldenArchives does not cover. WMIS(Markov) builds the most
// CaRTs per search, so it is the strictest check on model building.
var goldenStrategyArchives = map[string]string{
	"markov/cdr/0.01":    "3c25b23f03bdcec5adfb1892ba33107021237863caed2e4908c1579f63a59a58",
	"markov/cdr/0.05":    "d31e0a62038fc8b567d03602c91253860e5bc41997d3a07017a4e93e2c7f4d12",
	"markov/census/0.01": "727aec9c400f81deae19b2b04d3d081f8e90299a1a9c1d64b34a47f34f5daf58",
	"markov/census/0.05": "60dd4bff82598d01e722cf8f1e38e6b63adfe7037dfb302df2c82b16a21b96b5",
	"markov/corel/0.01":  "814f72ec9cc1b4d470adb29081ce6844f653e8e58476cf9e77ad19b0730b34eb",
	"markov/corel/0.05":  "377797ddb27dd948baa57670235d26c748d9a126a5df11faf6ab17dce587ff90",
	"markov/forest/0.01": "829b23e6231237c54016d0233a4f1e7e1d589b488854cad48f4bda70583a7b4f",
	"markov/forest/0.05": "a1e9743fd0ae41998ff097479099e44e1c14e43236ced30628337b5ae1490da8",
	"greedy/cdr/0.01":    "fc65e27548040c9878e589a2171dd6b1f1868e0a75f169bbcd5a959f98d58e53",
	"greedy/cdr/0.05":    "fc842cc842ae09063e52efca44c56f0242b0ce6fc48b7c928568e1572588ef2a",
	"greedy/census/0.01": "e6d7e8025f9b627e9f5d5ca2923f6da9de39c31337996cc77810a8a3c3269f5b",
	"greedy/census/0.05": "a02920e9996042e4f4dac8c978207153c81470bea1b4cfe0a0a010cb2da55919",
	"greedy/corel/0.01":  "c4f89fde8c43b0c72a2aaadabcd5ef2392a1fc3521932e7f66c97aad9db02071",
	"greedy/corel/0.05":  "14a3317c6b7707343f52f40149da7893de0d13358b06c3585a925f348d370a08",
	"greedy/forest/0.01": "cef5032194a6c548051f50e6972043f94e798fdc170fafc9c420d3141f13dd25",
	"greedy/forest/0.05": "cef5032194a6c548051f50e6972043f94e798fdc170fafc9c420d3141f13dd25",
}

var goldenGenerators = []struct {
	name string
	gen  func(int, int64) *table.Table
}{
	{"cdr", datagen.CDR},
	{"census", datagen.Census},
	{"corel", datagen.Corel},
	{"forest", datagen.ForestCover},
}

// checkGolden compresses every generator at 4000 rows, seed 7 and two
// tolerances under sel, and compares each archive's SHA-256 against
// want[prefix+generator/tolerance].
func checkGolden(t *testing.T, sel core.SelectionStrategy, prefix string, want map[string]string) {
	for _, g := range goldenGenerators {
		tb := g.gen(4000, 7)
		for _, frac := range []float64{0.01, 0.05} {
			name := fmt.Sprintf("%s/%g", g.name, frac)
			t.Run(name, func(t *testing.T) {
				var buf bytes.Buffer
				opts := core.Options{Tolerances: table.UniformTolerances(tb, frac, 0), Selection: sel}
				if _, err := core.Compress(&buf, tb, opts); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != want[prefix+name] {
					t.Errorf("sha256 = %s, want %s", got, want[prefix+name])
				}
			})
		}
	}
}

// TestGoldenArchives compresses every generator at two tolerances with the
// default selection strategy and compares the SHA-256 of the output
// against the pinned hashes.
func TestGoldenArchives(t *testing.T) {
	checkGolden(t, core.SelectWMISParents, "", goldenArchives)
}

// TestGoldenArchivesStrategies is TestGoldenArchives under WMIS(Markov)
// and Greedy selection.
func TestGoldenArchivesStrategies(t *testing.T) {
	for _, s := range []struct {
		name string
		sel  core.SelectionStrategy
	}{{"markov", core.SelectWMISMarkov}, {"greedy", core.SelectGreedy}} {
		t.Run(s.name, func(t *testing.T) {
			checkGolden(t, s.sel, s.name+"/", goldenStrategyArchives)
		})
	}
}
