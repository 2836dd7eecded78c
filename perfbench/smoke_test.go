package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tinySizes shrink every workload's inputs so a run takes about a
// second. The runs ask the same queries and make the same checks as the
// benchmark.
var tinySizes = sizes{
	SmallRows:     300,
	LargeRows:     3000,
	LargeSegRows:  1000,
	ServeRows:     2400,
	ServeSegRows:  300,
	ServeCompRows: 400,
}

// knownFault matches the engine fault quantileFault records on seed 2 at
// the tiny size: query.Run resolves the 5% quantile tolerance of Census
// tenure_years against the decoded column's range, which is narrower than
// the original's, so the COUNT interval misses the exact answer.
var knownFault = regexp.MustCompile(`^census/5%: quantile-form read-back query COUNT\(\*\) WHERE tenure_years > \S+: group "": exact answer \S+ outside \[`)

// layerWant lists, per workload, per-layer metrics that must be non-zero
// on a traced run: the layers that workload exercises.
var layerWant = map[string][]string{
	"compress-small": {"bayesnet.build_ms", "selector.select_ms", "fascicle.cluster_ms",
		"codec.encode_ms", "codec.header_bytes", "core.compress_ms", "selector.alloc_mb"},
	"archive-large": {"bayesnet.build_ms", "codec.encode_ms", "archive.write_ms", "archive.busy_ms",
		"archive.parallel_eff", "archive.ratio_vs_mono", "archive.time_vs_mono_1w"},
	"serve-mixed": {"server.compress_handler_ms",
		"server.query_handler_ms.key_range", "server.query_handler_ms.non_key",
		"archive.decoded_frac.key_range", "archive.decoded_frac.non_key",
		"codec.segment_decode_ms.key_range", "codec.segment_decode_ms.non_key",
		"query.run_ms.key_range", "query.run_ms.non_key"},
}

// TestSmoke runs every workload untraced and traced at a tiny size: every
// output check must pass and every metric must be reported. On
// compress-small the quantile-form read-back must show the known engine
// fault and nothing else; seed 2 is one on which it shows at this size.
// When the engine is fixed the fault no longer shows and the test says
// what to undo.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"compress-small", "archive-large", "serve-mixed"} {
		for _, traced := range []bool{false, true} {
			name := wl + "/untraced"
			if traced {
				name = wl + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := &options{workload: wl, seed: 2, seconds: 0.5, trace: traced, outDir: t.TempDir(), size: tinySizes}
				r, err := execute(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.result()
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct {
					t.Fatalf("attempted %d, failed %d: %q", res.Attempted, res.Failed, r.failures)
				}
				for _, f := range r.knownFaults {
					if !knownFault.MatchString(f) {
						t.Errorf("unexpected fault on the quantile-form read-back: %s", f)
					}
				}
				if wl == "compress-small" && len(r.knownFaults) == 0 {
					t.Error("the quantile-form read-back no longer misses: pass in.tol to query.Run in readBack and remove quantileFault")
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				if !traced {
					for _, d := range endToEnd {
						if v := res.Metrics[d.name].Value; !(v > 0) {
							t.Errorf("%s = %g, want > 0", d.name, v)
						}
					}
				}
				if traced {
					for _, name := range layerWant[wl] {
						if v := res.Metrics[name].Value; !(v > 0) {
							t.Errorf("%s = %g, want > 0", name, v)
						}
					}
					if u := res.Metrics["core.unattributed_ms"].Value; u < 0 {
						t.Errorf("core.unattributed_ms = %g, want >= 0", u)
					}
				}
				if err := r.writeFiles(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestResultLine checks the command-line path: the last line of standard
// output is the result object with exactly its four keys.
func TestResultLine(t *testing.T) {
	saved := fullSizes
	fullSizes = tinySizes
	defer func() { fullSizes = saved }()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "compress-small", "--seed", "3", "--seconds", "0.2",
		"--trace", "0", "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result has no %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
	if code := realMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d reported", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %g at p%g, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %g at p%g, want the maximum", v, pct)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 20}, {30, 40}, {50, 60}}
	if got := covered(iv, 2, 55); got != 18+10+5 {
		t.Errorf("covered = %d, want 33", got)
	}
}
