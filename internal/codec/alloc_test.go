package codec

import (
	"io"
	"math/rand"
	"testing"
)

// TestEncodeAllocsFlatInRows checks that Encode allocates nothing per
// encoded cell or outlier. Its allocations still grow a little with the
// table: buffers double, the numeric dictionaries grow with the distinct
// values, and a value written across a full 4 KiB write buffer takes one
// allocation. The bound allows one allocation per 100 added cells; one per
// cell, what a heap-escaping uvarint buffer costs, exceeds it a hundredfold.
func TestEncodeAllocsFlatInRows(t *testing.T) {
	const small, large = 1000, 16000
	type plan struct {
		name   string
		encode func(n int) (func(), int)
	}
	plans := []plan{
		{"materialized", func(n int) (func(), int) {
			tb := testTable(rand.New(rand.NewSource(1)), n)
			all := []int{0, 1, 2, 3}
			return func() {
				if _, err := Encode(io.Discard, tb, all, nil); err != nil {
					t.Fatal(err)
				}
			}, n * len(all)
		}},
		{"models", func(n int) (func(), int) {
			tb := testTable(rand.New(rand.NewSource(1)), n)
			mats, models := buildPlan(t, tb, 2)
			cells := n * len(mats)
			for _, m := range models {
				cells += len(m.Outliers)
			}
			return func() {
				if _, err := Encode(io.Discard, tb, mats, models); err != nil {
					t.Fatal(err)
				}
			}, cells
		}},
	}
	for _, p := range plans {
		t.Run(p.name, func(t *testing.T) {
			encSmall, cellsSmall := p.encode(small)
			encLarge, cellsLarge := p.encode(large)
			allocsSmall := testing.AllocsPerRun(5, encSmall)
			allocsLarge := testing.AllocsPerRun(5, encLarge)
			added := float64(cellsLarge - cellsSmall)
			if allocsLarge-allocsSmall > added/100 {
				t.Errorf("Encode allocates %.0f times for %d cells and %.0f times for %d: more than one per 100 added cells",
					allocsSmall, cellsSmall, allocsLarge, cellsLarge)
			}
		})
	}
}
