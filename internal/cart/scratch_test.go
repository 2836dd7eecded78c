package cart

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/table"
)

// TestSortFuncMatchesSortSlice pins the assumption byte-identical trees
// rest on: slices.SortFunc with lessX leaves rows with equal x in the same
// order sort.Slice with a < comparison did, because both run the same
// pdqsort. Near-tied split scores depend on that order through float
// summation.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 5, 12, 13, 50, 51, 300, 4000} {
		for _, distinct := range []int{1, 3, 40, 1 << 30} {
			ps := make([]numPair, n)
			for i := range ps {
				ps[i] = numPair{x: float64(rng.Intn(distinct)), y: float64(i)}
			}
			want := slices.Clone(ps)
			sort.Slice(want, func(i, j int) bool { return want[i].x < want[j].x })
			slices.SortFunc(ps, func(p, q numPair) int { return lessX(p.x, q.x) })
			if !slices.Equal(ps, want) {
				t.Fatalf("n=%d distinct=%d: tie order differs from sort.Slice", n, distinct)
			}
		}
	}
}

// mixedTable has numeric and categorical predictors driving a noisy
// numeric target and a noisy categorical target, so trees on it split on
// both predictor kinds and grow dozens of nodes.
func mixedTable(rng *rand.Rand, n int) *table.Table {
	schema := table.Schema{
		{Name: "x", Kind: table.Numeric},
		{Name: "g", Kind: table.Categorical},
		{Name: "h", Kind: table.Categorical},
		{Name: "y", Kind: table.Numeric},
		{Name: "cls", Kind: table.Categorical},
	}
	b := table.MustBuilder(schema)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		g := rng.Intn(20)
		h := rng.Intn(6)
		y := x*float64(g%4+1) + 10*float64(h) + rng.NormFloat64()*8
		cls := (int(x)/20 + h) % 5
		if rng.Intn(10) == 0 {
			cls = rng.Intn(5)
		}
		b.MustAppendRow(x, fmt.Sprint("g", g), fmt.Sprint("h", h), y, fmt.Sprint("c", cls))
	}
	return b.MustBuild()
}

// TestBuildAllocs puts a ceiling on the allocations of one Build on a
// fixed sample. What remains is the tree itself (every node grown,
// including subtrees that pruning collapses), one code set per
// categorical split kept, and a fixed set of scratch buffers per build.
// The ceilings sit about 10% above the measured counts; an allocation
// per node per candidate, or per row, breaks them many times over. Before
// the builder reused its scratch, these builds took 17498, 22127, 10138
// and 11943 allocations.
func TestBuildAllocs(t *testing.T) {
	tb := mixedTable(rand.New(rand.NewSource(4)), 2000)
	cm := NewCostModel(tb)
	for _, c := range []struct {
		name      string
		target    int
		tol       float64
		prune     PruneMode
		nodes     int
		maxAllocs float64
	}{
		{"regression", 3, 2, PruneIntegrated, 707, 1150},
		{"regression/prune-after", 3, 2, PruneAfter, 707, 1200},
		{"classification", 4, 0.01, PruneIntegrated, 77, 430},
		{"classification/prune-after", 4, 0.01, PruneAfter, 77, 540},
	} {
		cfg := Config{FullRows: 100000, Prune: c.prune}
		m, _, err := Build(tb, c.target, []int{0, 1, 2}, c.tol, cm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.NumNodes(); got != c.nodes {
			t.Fatalf("%s: %d nodes, want %d; the ceiling is for that tree", c.name, got, c.nodes)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := Build(tb, c.target, []int{0, 1, 2}, c.tol, cm, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > c.maxAllocs {
			t.Errorf("%s: %.0f allocations per Build, want at most %.0f", c.name, allocs, c.maxAllocs)
		}
	}
}
