// Command perfbench is SPARTAN's benchmark. It times calls into the
// engine's public functions from outside the engine — core.CompressContext,
// archive.WriteTableContext, archive.OpenSegmented with SegReader.Query and
// SegReader.Segment, core.Decompress, query.Run, and the server.New handler
// over loopback HTTP — on three seeded workloads, checks every output, and
// prints one JSON result line last on standard output.
//
//	perfbench --workload compress-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run. README.md
// describes every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where the details and span files go
	size     sizes
}

// sizes are the row counts of every workload's inputs. The smoke test
// shrinks them; the benchmark always runs fullSizes.
type sizes struct {
	SmallRows     int // compress-small: rows per table
	LargeRows     int // archive-large: rows per table
	LargeSegRows  int // archive-large: rows per segment
	ServeRows     int // serve-mixed: rows of the prebuilt archive
	ServeSegRows  int // serve-mixed: rows per segment of the prebuilt archive
	ServeCompRows int // serve-mixed: rows per /compress table
}

var fullSizes = sizes{
	SmallRows:     4000,
	LargeRows:     128000,
	LargeSegRows:  8000,
	ServeRows:     64000,
	ServeSegRows:  4000,
	ServeCompRows: 8000,
}

const (
	setupReps   = 3  // set-ups per run; setup_s is their median
	smallProbes = 16 // compress-small: distinct read-back queries per output
	largeProbes = 4  // archive-large: distinct read-back queries per output
	replays     = 24 // traced serve-mixed: direct replays per query kind
)

// workloads maps each workload name to its set-up.
var workloads = map[string]func(o *options, r *run) (bench, error){
	"compress-small": setupCompressSmall,
	"archive-large":  setupArchiveLarge,
	"serve-mixed":    setupServeMixed,
}

// bench is a set-up workload, ready to measure.
type bench interface {
	// measure runs the workload's closed loop for o.seconds and records
	// its samples and metrics in r.
	measure(ctx context.Context, r *run) error
	// close releases what the set-up started.
	close()
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r, err := execute(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := r.writeFiles(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r.printSummary(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{size: fullSizes}
	fs.StringVar(&o.workload, "workload", "", "workload: compress-small, archive-large or serve-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input and the request sequence")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the closed loop measures")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.outDir, "out", ".bench_results", "directory for the details and span files")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = *trace == 1
	return o, nil
}

// execute sets the workload up setupReps times, measures the last set-up
// and fills the run's metrics. A fixed CPU loop is timed before and after,
// so the details file shows how fast the machine ran during the run.
func execute(ctx context.Context, o *options) (*run, error) {
	r := newRun(o)
	calBefore := calibrate()
	var (
		b     bench
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if b, err = workloads[o.workload](o, r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer b.close()
	r.details["setup_s_reps"] = times
	r.e2e["setup_s"] = median(times)

	runtime.GC()
	rss := startRSS()
	err := b.measure(ctx, r)
	peak, rssErr := rss.finish()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	r.e2e["peak_rss_mb"] = peak
	r.details["calibration_ms"] = []float64{calBefore, calibrate()}
	return r, nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports all of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ratio", "ratio"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"compress_p50_ms", "ms"},
	{"req_per_s", "req/s"},
	{"query_bound_rel", "ratio"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// readPathLayers are the serve-mixed per-layer metrics reported once for
// key-range and once for non-key queries (suffixes .key_range, .non_key).
var readPathLayers = []metricDef{
	{"server.query_handler_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"archive.open_ms", "ms"},
	{"archive.query_ms", "ms"},
	{"archive.decoded_frac", "frac"},
	{"codec.segment_decode_ms", "ms"},
	{"query.run_ms", "ms"},
	{"query.uncertain_rows_frac", "frac"},
	{"query.bound_rel", "ratio"},
}

// queryKinds are the two serve-mixed query families.
var queryKinds = []string{"key_range", "non_key"}

// perLayer are the metrics of a traced run (--trace 1). A workload that
// bypasses a layer reports it as 0: the layer did no work there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bayesnet.build_ms", "ms"},
		{"selector.select_ms", "ms"},
		{"selector.carts_built", "count"},
		{"fascicle.cluster_ms", "ms"},
		{"fascicle.fascicles", "count"},
		{"cart.outlier_scan_ms", "ms"},
		{"cart.outliers", "count"},
		{"codec.encode_ms", "ms"},
		{"codec.tprime_bytes", "bytes"},
		{"codec.model_bytes", "bytes"},
		{"codec.header_bytes", "bytes"},
		{"core.compress_ms", "ms"},
		{"core.unattributed_ms", "ms"},
		{"bayesnet.alloc_mb", "MB"},
		{"selector.alloc_mb", "MB"},
		{"fascicle.alloc_mb", "MB"},
		{"cart.alloc_mb", "MB"},
		{"codec.alloc_mb", "MB"},
		{"archive.write_ms", "ms"},
		{"archive.busy_ms", "ms"},
		{"archive.parallel_eff", "frac"},
		{"archive.ratio_vs_mono", "ratio"},
		{"archive.time_vs_mono_1w", "ratio"},
	}
	for _, m := range readPathLayers {
		for _, k := range queryKinds {
			defs = append(defs, metricDef{m.name + "." + k, m.unit})
		}
	}
	return append(defs,
		metricDef{"server.compress_handler_ms", "ms"},
		metricDef{"server.rejected", "count"},
		metricDef{"obs.trace_overhead_frac", "frac"},
	)
}()

// run accumulates one invocation's checks, samples and metrics.
type run struct {
	opts      *options
	attempted int
	failed    int
	failures  []string
	// knownFaults are engine faults the run observed on a path it does
	// not time or count as a check (see quantileFault).
	knownFaults []string
	e2e         map[string]float64
	layer       map[string]float64
	details     map[string]any
	spans       *recorder // nil on an untraced run
}

func newRun(o *options) *run {
	r := &run{
		opts:    o,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		details: map[string]any{},
	}
	if o.trace {
		r.spans = newRecorder()
	}
	return r
}

// maxFailureNotes bounds how many failure messages the details keep.
const maxFailureNotes = 20

// check counts one output check, and a failure when err is non-nil.
func (r *run) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, err.Error())
	}
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one.
func (r *run) result() (*result, error) {
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if r.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	defs, values := endToEnd, r.e2e
	if r.opts.trace {
		defs, values = perLayer, r.layer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !r.opts.trace {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %g", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// baseName is the file-name stem of this invocation's output files.
func (r *run) baseName() string {
	t := 0
	if r.opts.trace {
		t = 1
	}
	return filepath.Join(r.opts.outDir, fmt.Sprintf("%s-seed%d-trace%d", r.opts.workload, r.opts.seed, t))
}

// writeFiles writes the details file (every metric, tail percentiles,
// sample counts, output hashes, failures) and, on a traced run, the span
// file.
func (r *run) writeFiles() error {
	if err := os.MkdirAll(r.opts.outDir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload":     r.opts.workload,
		"seed":         r.opts.seed,
		"seconds":      r.opts.seconds,
		"trace":        r.opts.trace,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"attempted":    r.attempted,
		"failed":       r.failed,
		"failures":     r.failures,
		"known_faults": r.knownFaults,
		"end_to_end":   r.e2e,
		"per_layer":    r.layer,
		"details":      r.details,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(r.baseName()+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	return r.spans.writeFile(r.baseName() + ".spans.jsonl")
}

// printSummary prints one human-readable line per metric, sorted by name,
// before the result line.
func (r *run) printSummary(w io.Writer) {
	values := r.e2e
	if r.opts.trace {
		values = r.layer
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%v attempted=%d failed=%d\n",
		r.opts.workload, r.opts.seed, r.opts.trace, r.attempted, r.failed)
	for _, n := range names {
		fmt.Fprintf(w, "# %-36s %.6g\n", n, values[n])
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	for _, f := range r.knownFaults {
		fmt.Fprintf(w, "# KNOWN FAULT: %s\n", f)
	}
}
