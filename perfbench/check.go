package main

import (
	"fmt"
	"math"

	spartan "repro"
	"repro/internal/query"
	"repro/internal/table"
)

// verifySlices checks a decoded table against its original in row ranges
// of segRows rows (all rows at once when segRows is 0): every value must
// lie within its tolerance, resolved against that range's original rows —
// the range a segmented writer resolves quantile tolerances against.
func verifySlices(orig, decoded *table.Table, tol table.Tolerances, segRows int) error {
	n := orig.NumRows()
	if decoded.NumRows() != n {
		return fmt.Errorf("decoded %d rows, want %d", decoded.NumRows(), n)
	}
	if segRows <= 0 || segRows >= n {
		return spartan.Verify(orig, decoded, tol)
	}
	for lo := 0; lo < n; lo += segRows {
		rows := make([]int, 0, segRows)
		for i := lo; i < lo+segRows && i < n; i++ {
			rows = append(rows, i)
		}
		o, err := orig.SelectRows(rows)
		if err != nil {
			return err
		}
		d, err := decoded.SelectRows(rows)
		if err != nil {
			return err
		}
		if err := spartan.Verify(o, d, tol); err != nil {
			return fmt.Errorf("rows %d..%d: %w", lo, lo+len(rows)-1, err)
		}
	}
	return nil
}

// boundCheck checks that every group of got bounds the exact answer
// computed on the original table, and returns the widest relative
// interval width (Hi−Lo)/|exact| over groups with a non-zero answer; ok
// is false when no group has one.
func boundCheck(exact, got *query.Result) (widest float64, ok bool, err error) {
	byKey := make(map[string]query.Group, len(got.Groups))
	for _, g := range got.Groups {
		byKey[g.Key] = g
	}
	for _, e := range exact.Groups {
		if math.IsNaN(e.Value) {
			continue // no original row matched; nothing to bound
		}
		g, found := byKey[e.Key]
		if !found {
			return 0, false, fmt.Errorf("group %q missing from the answer", e.Key)
		}
		// The slack absorbs summation-order rounding only.
		eps := 1e-9 * math.Max(1, math.Abs(e.Value))
		if !(g.Lo-eps <= e.Value && e.Value <= g.Hi+eps) {
			return 0, false, fmt.Errorf("group %q: exact answer %g outside [%g, %g]", e.Key, e.Value, g.Lo, g.Hi)
		}
		if e.Value != 0 {
			widest = math.Max(widest, (g.Hi-g.Lo)/math.Abs(e.Value))
			ok = true
		}
	}
	return widest, ok, nil
}

// probe is one read-back query with its exact answer on the original
// table and a name that says what it asks.
type probe struct {
	name  string
	q     query.Query
	exact *query.Result
}

// probeQueries returns up to n read-back queries over t with their exact
// answers on t. They are fixed templates, so every seed asks the same
// questions of statistically alike data: for the numeric columns in
// schema order, the SUM of the column and the COUNT of rows above the
// column's median. Templates whose exact answer is zero are left out.
func probeQueries(t *table.Table, n int) ([]probe, error) {
	var probes []probe
	for c, a := range t.Schema() {
		if a.Kind != table.Numeric || len(probes) >= n {
			continue
		}
		vals := make([]float64, t.NumRows())
		for row := range vals {
			vals[row] = t.Float(row, c)
		}
		med := median(vals)
		for _, p := range []probe{
			{name: fmt.Sprintf("SUM(%s)", a.Name), q: query.Query{Agg: query.Sum, Column: a.Name}},
			{name: fmt.Sprintf("COUNT(*) WHERE %s > %g", a.Name, med),
				q: query.Query{Agg: query.Count, Where: query.NumCmp(a.Name, query.Gt, med)}},
		} {
			var err error
			if p.exact, err = query.Run(t, nil, p.q); err != nil {
				return nil, err
			}
			if g := p.exact.Groups[0]; math.IsNaN(g.Value) || g.Value == 0 || len(probes) == n {
				continue
			}
			probes = append(probes, p)
		}
	}
	if len(probes) == 0 {
		return nil, fmt.Errorf("no read-back query has a non-zero answer")
	}
	return probes, nil
}
