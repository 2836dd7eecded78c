package archive_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/table"
)

// goldenReadTables pins the SHA-256 of table.WriteBinary over the table
// read back from each golden archive. WriteBinary records dictionaries in
// order and every code, so unlike table.Equal it also pins how the read
// path re-unifies segment dictionaries.
var goldenReadTables = map[string]string{
	"cdr":    "4d43912c2d93bd8c2c064f97f6272849adb46c1a9cd0fd3ff8d5e8df0127215d",
	"census": "5e1aa61de753066275af4e70a2e45270178f2860f4f746c444e0c7704208f18a",
}

// goldenQueries are SegReader.Query calls over the golden archives, read
// under the tolerances they were written with.
var goldenQueries = []struct {
	archive, name string
	q             query.Query
}{
	{"cdr", "key_range", query.Query{Agg: query.Sum, Column: "charge_cents",
		Where: query.And(query.NumCmp("start_hour", query.Ge, 8), query.NumCmp("start_hour", query.Lt, 10))}},
	{"cdr", "non_key", query.Query{Agg: query.Avg, Column: "duration_sec",
		Where: query.NumCmp("charge_cents", query.Gt, 100)}},
	{"cdr", "group_by", query.Query{Agg: query.Sum, Column: "charge_cents",
		Where: query.NumCmp("duration_sec", query.Gt, 200), GroupBy: "plan"}},
	{"cdr", "refuted", query.Query{Agg: query.Sum, Column: "charge_cents",
		Where: query.NumCmp("start_hour", query.Gt, 1000)}},
	{"census", "group_by", query.Query{Agg: query.Min, Column: "hourly_pay",
		Where: query.NumCmp("age", query.Lt, 30), GroupBy: "employment"}},
}

// goldenQueryResults pins each golden query's segment stats and, per
// group, the exact math.Float64bits of Value, Lo and Hi.
var goldenQueryResults = map[string][]string{
	"cdr/key_range": {
		"decoded=5 pruned=0",
		`"" value=40f8748000000000 lo=40f6a77a3fe5c9e8 hi=41136d6abfb1599b rows=1639 uncertain=3285`,
	},
	"cdr/non_key": {
		"decoded=5 pruned=0",
		`"" value=407ba94143e4ebd3 lo=40758f20aa6201f0 hi=40812495e23c6c43 rows=3895 uncertain=983`,
	},
	"cdr/group_by": {
		"decoded=5 pruned=0",
		`"basic" value=4122b46000000000 lo=4121ed49ae2eb2e4 hi=4124f3b015cfa981 rows=5691 uncertain=726`,
		`"business" value=41126e7400000000 lo=4110e23cdfd8af91 hi=411574804c2f812e rows=5663 uncertain=685`,
		`"saver" value=411a9ff000000000 lo=41190b2fb53f7f12 hi=411e3e353e76c631 rows=5785 uncertain=710`,
	},
	"cdr/refuted": {
		"decoded=0 pruned=5",
		`"" value=0000000000000000 lo=0000000000000000 hi=0000000000000000 rows=0 uncertain=0`,
	},
	"census/group_by": {
		"decoded=5 pruned=0",
		`"fulltime" value=401cccccc0000000 lo=401ab0cdbb22d0e5 hi=401ee8cbc4dd2f1b rows=4658 uncertain=400`,
		`"parttime" value=401e666660000000 lo=401c4a675b22d0e5 hi=40204132b26e978d rows=1416 uncertain=118`,
		`"unemployed" value=0000000000000000 lo=bfe0dff826e978d5 hi=3fe0dff826e978d5 rows=521 uncertain=39`,
	},
}

// renderResult writes a query result with its float bits in hex, one
// line per group after a line of segment stats.
func renderResult(res *query.Result, qs *archive.QueryStats) []string {
	out := []string{fmt.Sprintf("decoded=%d pruned=%d", qs.Decoded, qs.Pruned)}
	for _, g := range res.Groups {
		out = append(out, fmt.Sprintf("%q value=%016x lo=%016x hi=%016x rows=%d uncertain=%d",
			g.Key, math.Float64bits(g.Value), math.Float64bits(g.Lo), math.Float64bits(g.Hi), g.Rows, g.UncertainRows))
	}
	return out
}

// TestGoldenRead pins what the read path returns for the golden
// archives: the merged table of both ReadAll and SegReader.ReadAll, bit
// for bit and dictionary order included, and the exact intervals of a
// fixed set of segmented queries (key range, non-key, GROUP BY, and one
// every segment refutes).
func TestGoldenRead(t *testing.T) {
	gens := []struct {
		name string
		gen  func(int, int64) *table.Table
	}{
		{"cdr", datagen.CDR},
		{"census", datagen.Census},
	}
	for _, g := range gens {
		tb := g.gen(40000, 7)
		tol := table.UniformTolerances(tb, 0.01, 0)
		t.Run(g.name, func(t *testing.T) {
			// The archive TestGoldenSegmented pins.
			var buf bytes.Buffer
			seg := archive.SegmentOptions{SegmentRows: 8000}
			if _, err := archive.WriteTableContext(context.Background(), &buf, tb, core.Options{Tolerances: tol}, seg); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			sr, err := archive.OpenSegmented(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			viaSeg, err := sr.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			viaStream, err := archive.ReadAll(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			for _, read := range []struct {
				path string
				tb   *table.Table
			}{{"SegReader.ReadAll", viaSeg}, {"ReadAll", viaStream}} {
				var raw bytes.Buffer
				if err := table.WriteBinary(&raw, read.tb); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw.Bytes())
				if got := hex.EncodeToString(sum[:]); got != goldenReadTables[g.name] {
					t.Errorf("%s: WriteBinary sha256 = %s, want %s", read.path, got, goldenReadTables[g.name])
				}
			}
			for _, gq := range goldenQueries {
				if gq.archive != g.name {
					continue
				}
				res, qs, err := sr.Query(tol, gq.q)
				if err != nil {
					t.Fatalf("%s: %v", gq.name, err)
				}
				key := g.name + "/" + gq.name
				got, want := renderResult(res, qs), goldenQueryResults[key]
				if !slices.Equal(got, want) {
					t.Errorf("%s:\ngot  %q\nwant %q", key, got, want)
				}
			}
		})
	}
}
