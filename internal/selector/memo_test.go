package selector

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bayesnet"
	"repro/internal/cart"
	"repro/internal/datagen"
	"repro/internal/table"
)

// memoSearches pins a fingerprint of the Result (partition, CartsBuilt,
// estimated cost bits and every model) of real searches, recorded before
// the per-search CaRT memo existed: the memo must not change what the
// search selects or the build count it reports.
var memoSearches = map[string]string{
	"cdr/parents":    "94be016e08da44caae2a3d04d898e320d808b13c002655986c1cd20d8272ae7a",
	"cdr/markov":     "1eacacec6898a7cf925540e5d955f60d47e9f853c2a1c3797c24e851ca9fd917",
	"census/parents": "57ea4feb9040f854f67682912f904b166da9e132dcbc61755105b6167d8d14c7",
	"census/markov":  "a07eb34c1ebbc8418cec59da4b70d03a406baeddfa698467340ba508b84062b8",
	"corel/parents":  "fcbaaf87b2c6c4e7685539ad4e6907b68f4567bf8a631c000eac5e89c0a9d063",
	"corel/markov":   "ea98b7f95afe39b5b6db3a09188833db634b68ea296982253b9aa2cefa1752e4",
	"forest/parents": "eba29e5ab4426d2562ee63baa89479831a4e073b0e26f30187b2357942b2331e",
	"forest/markov":  "7017faf347c324d844f3b5cb4696f4eb0b201fcf631bd19bdc06e9fe579898f8",
}

// searchInput mirrors core's CaRT-selection input for a 4000-row table at
// 1% quantile tolerance: a 50 KB sample with a quarter held out.
func searchInput(t *testing.T, tb *table.Table) Input {
	t.Helper()
	sample := tb.SampleBytes(50<<10, rand.New(rand.NewSource(1)))
	n := sample.NumRows()
	cut := n - n/4
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	build, err := sample.SelectRows(all[:cut])
	if err != nil {
		t.Fatal(err)
	}
	holdout, err := sample.SelectRows(all[cut:])
	if err != nil {
		t.Fatal(err)
	}
	net, err := bayesnet.Build(sample, bayesnet.Config{MaxParents: 6})
	if err != nil {
		t.Fatal(err)
	}
	tol, err := table.UniformTolerances(tb, 0.01, 0).Resolve(tb)
	if err != nil {
		t.Fatal(err)
	}
	return Input{
		Sample:  build,
		Holdout: holdout,
		Tol:     tol,
		Net:     net,
		Cost:    cart.NewCostModel(tb),
		CartCfg: cart.Config{FullRows: tb.NumRows()},
	}
}

// fingerprint hashes everything a Result carries.
func fingerprint(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "pred=%v mat=%v built=%d cost=%x\n", res.Predicted, res.Materialized,
		res.CartsBuilt, math.Float64bits(res.EstimatedCost))
	for _, p := range res.Predicted {
		fmt.Fprintf(h, "model %d:\n%s", p, res.Models[p].String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMemoBuildsEachTreeOnce counts the real constructions behind
// MaxIndependentSet through the buildFn hook: every distinct (target,
// predictor set) is constructed once per search, however often Figure 4
// asks for it, and the Result matches the search without a memo.
func TestMemoBuildsEachTreeOnce(t *testing.T) {
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
		for _, nb := range []Neighborhood{Parents, MarkovBlanket} {
			name := g.name + "/" + nb.String()
			t.Run(name, func(t *testing.T) {
				in := searchInput(t, tb)
				real := in
				var mu sync.Mutex
				constructed := map[string]int{}
				in.buildFn = func(_ Input, target int, cands []int) (estimate, bool) {
					if len(cands) > 0 { // an empty set builds nothing
						mu.Lock()
						constructed[fmt.Sprint(target, cands)]++
						mu.Unlock()
					}
					return constructEstimate(context.Background(), real, target, cands)
				}
				res, err := MaxIndependentSet(in, nb)
				if err != nil {
					t.Fatal(err)
				}
				total := 0
				for key, c := range constructed {
					total += c
					if c != 1 {
						t.Errorf("tree %s constructed %d times", key, c)
					}
				}
				if total > res.CartsBuilt {
					t.Errorf("%d constructions for %d requested builds", total, res.CartsBuilt)
				}
				t.Logf("%d constructions for %d requested builds", total, res.CartsBuilt)
				if got := fingerprint(res); got != memoSearches[name] {
					t.Errorf("result fingerprint = %s, want %s", got, memoSearches[name])
				}
			})
		}
	}
}

func TestMemoDropsCancelledBuild(t *testing.T) {
	calls := 0
	in := Input{buildFn: func(Input, int, []int) (estimate, bool) {
		calls++
		return estimate{cost: math.Inf(1)}, false
	}}
	m := newCartMemo()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := m.build(ctx, in, 1, []int{0, 2}); ok {
		t.Fatal("failed build reported ok")
	}
	// The cancelled failure was not kept, so this request builds again;
	// its failure, under a live context, is a result and is kept, and
	// serves the same set in another order.
	m.build(context.Background(), in, 1, []int{0, 2})
	m.build(context.Background(), in, 1, []int{2, 0})
	if calls != 2 {
		t.Errorf("%d constructions, want 2 (one cancelled, one kept)", calls)
	}
}
