package table

import (
	"fmt"
	"math"
)

// Concat returns the rows of tables, in order, as one new table. Every
// table must have the same schema (attribute names and kinds), and at
// least one table is required, since zero tables carry no schema.
//
// The result is exactly what appending every row to one Builder gives:
// numeric cells are coerced to float32 precision, and each categorical
// dictionary lists its values in order of first appearance by row, so
// entries a table's dictionary holds but its rows never use are dropped,
// and duplicate entries collapse into one. Unlike a Builder it works
// column by column into presized slices, without boxing a cell.
func Concat(tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("table: concat of zero tables")
	}
	schema := tables[0].schema
	rows := 0
	for i, t := range tables {
		if err := t.schema.Match(schema); err != nil {
			return nil, fmt.Errorf("table: concat: table %d: %w", i, err)
		}
		if t.rows > math.MaxInt-rows {
			return nil, fmt.Errorf("table: concat: row count overflows")
		}
		rows += t.rows
	}
	cols := make([]*Column, len(schema))
	for c, a := range schema {
		if a.Kind == Numeric {
			cols[c] = concatFloats(tables, c, rows)
		} else {
			cols[c] = concatCodes(tables, c, rows)
		}
	}
	// New rejects a value that float32 coercion overflowed to ±Inf.
	return New(schema, cols)
}

// concatFloats joins numeric column c of every table, with the float32
// coercion Builder.AppendRow applies.
func concatFloats(tables []*Table, c, rows int) *Column {
	out := make([]float64, 0, rows)
	for _, t := range tables {
		for _, v := range t.cols[c].Floats {
			out = append(out, float64(float32(v)))
		}
	}
	return &Column{Kind: Numeric, Floats: out}
}

// concatCodes joins categorical column c of every table under one
// dictionary. Each table's codes remap through a table filled on first
// sight, so the merged dictionary grows in row order, as a Builder's does.
func concatCodes(tables []*Table, c, rows int) *Column {
	out := &Column{Kind: Categorical, Codes: make([]int32, 0, rows)}
	merged := make(map[string]int32)
	var remap []int32
	for _, t := range tables {
		col := t.cols[c]
		remap = remap[:0]
		for range col.Dict {
			remap = append(remap, -1)
		}
		for _, code := range col.Codes {
			to := remap[code]
			if to < 0 {
				s := col.Dict[code]
				var ok bool
				if to, ok = merged[s]; !ok {
					to = int32(len(out.Dict))
					merged[s] = to
					out.Dict = append(out.Dict, s)
				}
				remap[code] = to
			}
			out.Codes = append(out.Codes, to)
		}
	}
	return out
}
