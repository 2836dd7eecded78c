package table_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
)

// builderConcat is the reference Concat: every row of every table
// appended, in order, to one Builder.
func builderConcat(tables []*table.Table) (*table.Table, error) {
	if len(tables) == 0 {
		return nil, errors.New("zero tables")
	}
	schema := tables[0].Schema()
	b, err := table.NewBuilder(schema)
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		if err := t.Schema().Match(schema); err != nil {
			return nil, err
		}
		row := make([]any, t.NumCols())
		for r := 0; r < t.NumRows(); r++ {
			for c := range row {
				if t.Attr(c).Kind == table.Numeric {
					row[c] = t.Float(r, c)
				} else {
					row[c] = t.CatString(r, c)
				}
			}
			if err := b.AppendRow(row...); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// checkConcat requires Concat to build exactly the reference table:
// equal schema, dictionaries in the same order, the same codes and the
// same float bits.
func checkConcat(t *testing.T, tables ...*table.Table) {
	t.Helper()
	want, err := builderConcat(tables)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	got, err := table.Concat(tables...)
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if err := got.Schema().Match(want.Schema()); err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("Concat has %d rows, want %d", got.NumRows(), want.NumRows())
	}
	for c := 0; c < want.NumCols(); c++ {
		g, w := got.Col(c), want.Col(c)
		if !slices.Equal(g.Dict, w.Dict) {
			t.Errorf("column %d: Dict = %q, want %q", c, g.Dict, w.Dict)
		}
		if !slices.Equal(g.Codes, w.Codes) {
			t.Errorf("column %d: Codes differ", c)
		}
		if !slices.EqualFunc(g.Floats, w.Floats, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Errorf("column %d: Floats differ", c)
		}
	}
}

// split cuts t into consecutive pieces of the given sizes, the last
// piece taking the rest. With rebuild, each piece gets its own
// dictionaries in first-appearance order, as a decoded segment does;
// without, pieces share t's whole dictionary, unused entries included.
func split(t *testing.T, tb *table.Table, sizes []int, rebuild bool) []*table.Table {
	t.Helper()
	var out []*table.Table
	lo := 0
	for i := 0; i <= len(sizes); i++ {
		hi := tb.NumRows()
		if i < len(sizes) {
			hi = lo + sizes[i]
		}
		rows := make([]int, hi-lo)
		for j := range rows {
			rows[j] = lo + j
		}
		part, err := tb.SelectRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		if rebuild {
			if part, err = builderConcat([]*table.Table{part}); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, part)
		lo = hi
	}
	return out
}

func TestConcatMatchesBuilder(t *testing.T) {
	gens := []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
		{"corel", datagen.Corel},
		{"forest", datagen.ForestCover},
	}
	// Uneven segments, with empty and single-row ones between them.
	sizes := []int{0, 1, 137, 0, 250, 1, 1}
	for _, g := range gens {
		tb := g.gen(700, 3)
		for _, rebuild := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/rebuild=%v", g.name, rebuild), func(t *testing.T) {
				checkConcat(t, split(t, tb, sizes, rebuild)...)
			})
		}
		// Out of order, the pieces' shared dictionary no longer lists
		// values in the order the merged rows first show them.
		t.Run(g.name+"/reversed", func(t *testing.T) {
			pieces := split(t, tb, sizes, false)
			slices.Reverse(pieces)
			checkConcat(t, pieces...)
		})
		t.Run(g.name+"/single", func(t *testing.T) { checkConcat(t, tb) })
	}
}

func mustNew(t *testing.T, schema table.Schema, cols ...*table.Column) *table.Table {
	t.Helper()
	tb, err := table.New(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestConcatDictionaries(t *testing.T) {
	schema := table.Schema{{Name: "c", Kind: table.Categorical}, {Name: "v", Kind: table.Numeric}}
	seg := func(dict []string, codes ...int32) *table.Table {
		floats := make([]float64, len(codes))
		for i := range floats {
			floats[i] = float64(i)
		}
		return mustNew(t, schema,
			&table.Column{Kind: table.Categorical, Dict: dict, Codes: codes},
			&table.Column{Kind: table.Numeric, Floats: floats})
	}
	cases := []struct {
		name   string
		tables []*table.Table
	}{
		{"same values in other orders", []*table.Table{
			seg([]string{"a", "b", "c"}, 2, 0, 1, 0),
			seg([]string{"c", "b", "a"}, 1, 0, 2),
			seg([]string{"b", "c", "a"}, 0, 0, 2, 1),
		}},
		{"unused entries", []*table.Table{
			seg([]string{"unused", "x", "y"}, 2, 2),
			seg([]string{"x", "never", "z"}, 2, 0),
			seg([]string{"only-in-dict"}),
		}},
		{"duplicate entries", []*table.Table{
			seg([]string{"x", "y", "x"}, 2, 1, 0, 2),
			seg([]string{"y", "y"}, 1, 0),
		}},
		{"first appearance spans segments", []*table.Table{
			seg([]string{"p"}, 0),
			seg(nil),
			seg([]string{"q", "p"}, 1, 1, 0),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkConcat(t, tc.tables...) })
	}
}

func TestConcatCoercesToFloat32(t *testing.T) {
	schema := table.Schema{{Name: "v", Kind: table.Numeric}}
	checkConcat(t,
		mustNew(t, schema, &table.Column{Kind: table.Numeric, Floats: []float64{0.1, 1.0 / 3, math.Pi}}),
		mustNew(t, schema, &table.Column{Kind: table.Numeric, Floats: []float64{
			math.Copysign(0, -1), 1e-46, -1e-40, math.MaxFloat32, -math.MaxFloat32, 16777217}}),
	)
}

func TestConcatErrors(t *testing.T) {
	num := func(name string, v ...float64) *table.Table {
		return mustNew(t, table.Schema{{Name: name, Kind: table.Numeric}},
			&table.Column{Kind: table.Numeric, Floats: v})
	}
	cat := mustNew(t, table.Schema{{Name: "v", Kind: table.Categorical}},
		&table.Column{Kind: table.Categorical, Dict: []string{"a"}, Codes: []int32{0}})
	two := mustNew(t, table.Schema{{Name: "v", Kind: table.Numeric}, {Name: "w", Kind: table.Numeric}},
		&table.Column{Kind: table.Numeric, Floats: []float64{1}},
		&table.Column{Kind: table.Numeric, Floats: []float64{2}})
	cases := []struct {
		name   string
		tables []*table.Table
	}{
		{"zero tables", nil},
		{"overflows float32", []*table.Table{num("v", 1), num("v", 2, 1e39)}},
		{"other name", []*table.Table{num("v", 1), num("w", 1)}},
		{"other kind", []*table.Table{num("v", 1), cat}},
		{"other width", []*table.Table{num("v", 1), two}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := builderConcat(tc.tables); err == nil {
				t.Fatal("reference accepted the tables")
			}
			if got, err := table.Concat(tc.tables...); err == nil {
				t.Errorf("Concat returned a %d-row table, want an error", got.NumRows())
			}
		})
	}
}
