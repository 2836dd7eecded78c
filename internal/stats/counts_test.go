package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// compositeCodesStringKeyed is the original CompositeCodes: one string key
// per row in a map[string]int. It is the reference the integer-keyed
// version must match code for code.
func compositeCodesStringKeyed(cols [][]int) (codes []int, card int) {
	if len(cols) == 0 {
		return nil, 1
	}
	n := len(cols[0])
	codes = make([]int, n)
	index := make(map[string]int)
	key := make([]byte, 0, len(cols)*3)
	for i := 0; i < n; i++ {
		key = key[:0]
		for _, c := range cols {
			v := c[i]
			key = append(key, byte(v), byte(v>>8), byte(v>>16), 0xFF)
		}
		k := string(key)
		code, ok := index[k]
		if !ok {
			code = len(index)
			index[k] = code
		}
		codes[i] = code
	}
	return codes, len(index)
}

// cmiPerStratum is the original ConditionalMutualInformation, with its
// strata summed in code order instead of map order: one
// MutualInformation call per stratum.
func cmiPerStratum(x, y, z []int, cx, cy, cz int) float64 {
	byZ := make([][]int, cz)
	for i, zi := range z {
		byZ[zi] = append(byZ[zi], i)
	}
	n := float64(len(x))
	cmi := 0.0
	for _, rows := range byZ {
		if len(rows) == 0 {
			continue
		}
		xs := make([]int, len(rows))
		ys := make([]int, len(rows))
		for i, r := range rows {
			xs[i], ys[i] = x[r], y[r]
		}
		cmi += float64(len(rows)) / n * MutualInformation(xs, ys, cx, cy)
	}
	return cmi
}

func randomColumn(rng *rand.Rand, n, card int) []int {
	col := make([]int, n)
	for i := range col {
		col[i] = rng.Intn(card)
	}
	return col
}

func TestCompositeCodesMatchesStringKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Scratch // reused across cases, as the network builder does
	cases := []struct {
		name  string
		cards []int
		dense bool
	}{
		{"one column", []int{8}, true},
		{"bins", []int{8, 8, 8}, true},
		{"at dense limit", []int{256, 256}, true},
		{"just past dense limit", []int{257, 256}, false},
		{"large dictionaries", []int{5000, 40, 8}, false},
		{"wide", []int{3, 5, 7, 11, 13, 17}, false},
		{"beyond 64-bit products", []int{1 << 40, 1 << 30, 6}, false},
	}
	for _, c := range cases {
		if _, dense := denseSize(c.cards); dense != c.dense {
			t.Fatalf("%s: dense path = %v, want %v", c.name, dense, c.dense)
		}
		for _, n := range []int{1, 37, 4000} {
			cols := make([][]int, len(c.cards))
			for j, cd := range c.cards {
				// Draw from a small range of a huge domain, so that rows
				// repeat tuples and the string key's 24 bits still suffice.
				cols[j] = randomColumn(rng, n, min(cd, 1+rng.Intn(300)))
			}
			want, wantCard := compositeCodesStringKeyed(cols)
			got, card := s.CompositeCodes(cols, c.cards)
			if card != wantCard {
				t.Fatalf("%s n=%d: card = %d, want %d", c.name, n, card, wantCard)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: codes[%d] = %d, want %d", c.name, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestConditionalMutualInformationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s Scratch
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3000)
		cx, cy, cz := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(80)
		x, y, z := randomColumn(rng, n, cx), randomColumn(rng, n, cy), randomColumn(rng, n, cz)
		if trial%3 == 0 { // dependent X and Y within strata
			for i := range y {
				y[i] = (x[i] + z[i]) % cy
			}
		}
		want := cmiPerStratum(x, y, z, cx, cy, cz)
		got := s.ConditionalMutualInformation(x, y, z, cx, cy, cz)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: CMI = %v, want %v (bits differ)", trial, got, want)
		}
		if mi, ref := s.MutualInformation(x, y, cx, cy), MutualInformation(x, y, cx, cy); math.Float64bits(mi) != math.Float64bits(ref) {
			t.Fatalf("trial %d: Scratch MI = %v, package MI = %v", trial, mi, ref)
		}
	}
}

// TestConditionalMutualInformationDeterministic repeats one CI test over
// 60 strata. Summing the strata in map order made the float differ from
// call to call, so a test near its threshold could flip and change the
// network.
func TestConditionalMutualInformationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n, cx, cy, cz = 4000, 8, 8, 60
	x, z := randomColumn(rng, n, cx), randomColumn(rng, n, cz)
	y := make([]int, n)
	for i := range y {
		y[i] = (x[i]*z[i] + rng.Intn(3)) % cy
	}
	var s Scratch
	first := s.ConditionalMutualInformation(x, y, z, cx, cy, cz)
	for i := 0; i < 100; i++ {
		if got := s.ConditionalMutualInformation(x, y, z, cx, cy, cz); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d: CMI = %x, first call = %x", i, math.Float64bits(got), math.Float64bits(first))
		}
	}
}

// BenchmarkCompositeCodes compares the two paths of CompositeCodes on the
// conditioning sets the network builder tests on 4000-row tables: 400- to
// 600-row samples and one to three numeric attributes of 8 bins each.
func BenchmarkCompositeCodes(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{1, 2, 3} {
		cols := make([][]int, width)
		cards := make([]int, width)
		for j := range cols {
			cols[j], cards[j] = randomColumn(rng, 609, 8), 8
		}
		size, _ := denseSize(cards)
		var s Scratch
		codes := make([]int, 609)
		b.Run(fmt.Sprintf("dense/%dx8", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.denseCodes(codes, cols, cards, size)
			}
		})
		b.Run(fmt.Sprintf("fold/%dx8", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.foldCodes(codes, cols, cards)
			}
		})
	}
}
