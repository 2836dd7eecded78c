package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// compressInput is one distinct input of a compress workload, with the
// output the set-up verified for it.
type compressInput struct {
	name string
	t    *table.Table
	tol  table.Tolerances
	raw  int
	data []byte // verified output
	want [sha256.Size]byte

	probes []probe // read-back queries over data
	// readTol is tol resolved against t: the absolute bounds the
	// monolithic compressor applied, which its read-back passes to
	// query.Run (see quantileFault).
	readTol table.Tolerances
}

// compressor is the engine entry point a compress workload times, with
// the read path that decodes its output.
type compressor struct {
	segRows int // rows per segment; 0 for a monolithic stream
	workers int // segment workers; 0 for a monolithic stream
}

// call names the public function write calls, which names its span.
func (c compressor) call() string {
	if c.segRows == 0 {
		return "core.CompressContext"
	}
	return "archive.WriteTableContext"
}

// write compresses in to w, tracing into tr when it is non-nil, and
// returns the per-pipeline statistics (one per segment when segmented).
func (c compressor) write(ctx context.Context, w io.Writer, in *compressInput, tr *obs.Trace) ([]*core.Stats, error) {
	opts := core.Options{Tolerances: in.tol, Trace: tr}
	if c.segRows == 0 {
		st, err := core.CompressContext(ctx, w, in.t, opts)
		if err != nil {
			return nil, err
		}
		return []*core.Stats{st}, nil
	}
	st, err := archive.WriteTableContext(ctx, w, in.t, opts,
		archive.SegmentOptions{SegmentRows: c.segRows, Workers: c.workers})
	if err != nil {
		return nil, err
	}
	return st.PerSegment, nil
}

// verify decodes in.data and checks every value against its tolerance.
func (c compressor) verify(in *compressInput) error {
	var (
		dec *table.Table
		err error
	)
	if c.segRows == 0 {
		dec, err = core.Decompress(bytes.NewReader(in.data))
	} else {
		var sr *archive.SegReader
		if sr, err = archive.OpenSegmented(bytes.NewReader(in.data)); err != nil {
			return err
		}
		defer sr.Close()
		dec, err = sr.ReadAll()
	}
	if err != nil {
		return err
	}
	return verifySlices(in.t, dec, in.tol, c.segRows)
}

// readBack answers q from in.data through the read path a user of this
// output takes: core.Decompress then query.Run for a monolithic stream,
// archive.OpenSegmented then SegReader.Query for a segmented archive.
// Each call gets a span under parent when rec records.
func (c compressor) readBack(rec *recorder, op int64, parent *openSpan, in *compressInput, q query.Query) (*query.Result, error) {
	if c.segRows == 0 {
		sp := rec.begin(op, parent, "core.Decompress", in.name)
		dec, err := core.Decompress(bytes.NewReader(in.data))
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = rec.begin(op, parent, "query.Run", in.name)
		defer sp.end()
		return query.Run(dec, in.readTol, q)
	}
	sp := rec.begin(op, parent, "archive.OpenSegmented", in.name)
	sr, err := archive.OpenSegmented(bytes.NewReader(in.data))
	sp.end()
	if err != nil {
		return nil, err
	}
	defer sr.Close()
	sp = rec.begin(op, parent, "SegReader.Query", in.name)
	defer sp.end()
	res, _, err := sr.Query(in.tol, q)
	return res, err
}

// compressBench is a set-up compress workload: a closed loop of one
// client compressing its inputs in a fixed cycle.
type compressBench struct {
	c      compressor
	inputs []*compressInput
}

func (b *compressBench) close() {}

// setupCompressSmall builds compress-small: {CDR, Census, Corel,
// ForestCover} at SmallRows rows × {1%, 5%} quantile numeric tolerance,
// each compressed by core.CompressContext with default options.
func setupCompressSmall(o *options, r *run) (bench, error) {
	rng := rand.New(rand.NewSource(o.seed))
	n := o.size.SmallRows
	tables := []struct {
		name string
		t    *table.Table
	}{
		{"cdr", datagen.CDR(n, rng.Int63())},
		{"census", datagen.Census(n, rng.Int63())},
		{"corel", datagen.Corel(n, rng.Int63())},
		{"forest", datagen.ForestCover(n, rng.Int63())},
	}
	var inputs []*compressInput
	for _, tb := range tables {
		for _, frac := range []float64{0.01, 0.05} {
			inputs = append(inputs, &compressInput{
				name: fmt.Sprintf("%s/%g%%", tb.name, frac*100),
				t:    tb.t,
				tol:  table.UniformTolerances(tb.t, frac, 0),
				raw:  tb.t.RawSizeBytes(),
			})
		}
	}
	return newCompressBench(r, compressor{}, inputs, smallProbes)
}

// setupArchiveLarge builds archive-large: CDR and Census at LargeRows
// rows, alternately written by archive.WriteTableContext in segments of
// LargeSegRows rows at 1% tolerance with GOMAXPROCS workers.
func setupArchiveLarge(o *options, r *run) (bench, error) {
	rng := rand.New(rand.NewSource(o.seed))
	n := o.size.LargeRows
	var inputs []*compressInput
	for _, tb := range []struct {
		name string
		t    *table.Table
	}{
		{"cdr", datagen.CDR(n, rng.Int63())},
		{"census", datagen.Census(n, rng.Int63())},
	} {
		inputs = append(inputs, &compressInput{
			name: tb.name + "/1%",
			t:    tb.t,
			tol:  table.UniformTolerances(tb.t, 0.01, 0),
			raw:  tb.t.RawSizeBytes(),
		})
	}
	c := compressor{
		segRows: o.size.LargeSegRows,
		workers: runtime.GOMAXPROCS(0),
	}
	return newCompressBench(r, c, inputs, largeProbes)
}

// newCompressBench compresses every input once, verifies the output by
// decoding it, records its hash, and prepares up to probes read-back
// queries per output for the loop.
func newCompressBench(r *run, c compressor, inputs []*compressInput, probes int) (*compressBench, error) {
	ctx := context.Background()
	hashes := map[string]string{}
	for _, in := range inputs {
		var buf bytes.Buffer
		if _, err := c.write(ctx, &buf, in, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		in.data = buf.Bytes()
		in.want = sha256.Sum256(in.data)
		hashes[in.name] = hex.EncodeToString(in.want[:])
		r.check(wrapErr(in.name+": verify", c.verify(in)))
		var err error
		if in.probes, err = probeQueries(in.t, probes); err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		if c.segRows == 0 {
			if in.readTol, err = in.tol.Resolve(in.t); err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
		}
	}
	r.details["output_sha256"] = hashes
	return &compressBench{c: c, inputs: inputs}, nil
}

// opResult is what one compress operation reports to the loop.
type opResult struct {
	call  time.Duration // the engine call alone
	total time.Duration // the whole operation, check and tracing included
	out   int
	stats []*core.Stats
	tr    *obs.Trace
}

// op compresses one input and checks the output against its verified
// hash. A traced op records spans and an engine trace.
func (b *compressBench) op(ctx context.Context, r *run, in *compressInput, traced bool, buf *bytes.Buffer) opResult {
	start := time.Now()
	buf.Reset()
	var (
		tr     *obs.Trace
		rec    *recorder
		opID   int64
		opSpan *openSpan
	)
	if traced {
		tr = obs.NewTrace(b.c.call())
		tr.CaptureResources()
		rec = r.spans
		opID = rec.newOp()
		opSpan = rec.begin(opID, nil, "op", in.name)
	}
	callSpan := rec.begin(opID, opSpan, b.c.call(), in.name)
	callStart := time.Now()
	stats, err := b.c.write(ctx, buf, in, tr)
	call := time.Since(callStart)
	callSpan.end()
	if err == nil && sha256.Sum256(buf.Bytes()) != in.want {
		err = fmt.Errorf("output differs from the verified output")
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", in.name, err)
	}
	r.check(err)
	rec.importTrace(opID, callSpan, tr)
	opSpan.end()
	return opResult{call: call, total: time.Since(start), out: buf.Len(), stats: stats, tr: tr}
}

// measure runs whole input cycles until o.seconds have passed. After
// each cycle it asks one read-back query of every input's verified
// output, rotating through the input's probes; the query times are kept
// apart from the cycle time. On a traced run even cycles are traced and
// odd ones not, so the two share conditions and their time ratio prices
// the tracing.
//
// Rates come from the median cycle time, and op_p50_ms and query_p50_ms
// are medians of the inputs' median times, so neither a transient stall
// of the machine nor a mix of inputs with different costs moves them.
//
// Each distinct read-back query counts once, in query_bound_rel and as
// one output check, and queries the loop did not reach are asked after
// it. Neither the width nor the failure count then depends on how many
// cycles a run completed, so a faster engine is not charged with more
// failures for asking the same failing query more often.
func (b *compressBench) measure(ctx context.Context, r *run) error {
	o := r.opts
	if o.trace && b.c.segRows > 0 {
		if err := b.monoBaseline(ctx, r); err != nil {
			return err
		}
	}
	var (
		buf                    bytes.Buffer
		callMs, queryMs        []float64
		probed                 = map[[2]int]probeResult{} // by input and probe
		perInput               = make([][]float64, len(b.inputs))
		perInputQuery          = make([][]float64, len(b.inputs))
		cycleSec               []float64
		rows, raw, out, ops    int
		tracedNs, untracedNs   float64
		tracedOps, untracedOps int
		layers                 = newCompressLayers()
		memBefore, memAfter    runtime.MemStats
		allocBytes             uint64
		deadline               = time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		minCycles              = 1
	)
	if o.trace {
		minCycles = 2
	}
	for cycle := 0; cycle < minCycles || time.Now().Before(deadline); cycle++ {
		traced := o.trace && cycle%2 == 0
		// The allocation figure covers the compress ops alone, not the
		// read-back queries after them.
		runtime.ReadMemStats(&memBefore)
		cycleStart := time.Now()
		for i, in := range b.inputs {
			res := b.op(ctx, r, in, traced, &buf)
			ops++
			raw += in.raw
			out += res.out
			callMs = append(callMs, ms(res.call))
			perInput[i] = append(perInput[i], ms(res.call))
			if traced {
				tracedNs += float64(res.total)
				tracedOps++
				layers.add(res)
			} else {
				untracedNs += float64(res.total)
				untracedOps++
			}
		}
		cycleSec = append(cycleSec, time.Since(cycleStart).Seconds())
		runtime.ReadMemStats(&memAfter)
		allocBytes += memAfter.TotalAlloc - memBefore.TotalAlloc
		for i, in := range b.inputs {
			p := cycle % len(in.probes)
			res := b.probe(r, in, p, traced)
			if prev, seen := probed[[2]int{i, p}]; !seen || prev.err == nil {
				probed[[2]int{i, p}] = res
			}
			queryMs = append(queryMs, res.ms)
			perInputQuery[i] = append(perInputQuery[i], res.ms)
		}
	}
	for i, in := range b.inputs {
		for p := range in.probes {
			if _, seen := probed[[2]int{i, p}]; !seen {
				probed[[2]int{i, p}] = b.probe(r, in, p, false)
			}
		}
	}
	var rel []float64
	for _, res := range probed {
		r.check(res.err)
		if res.widthOK {
			rel = append(rel, res.width)
		}
	}
	if b.c.segRows == 0 {
		if err := b.quantileFault(r); err != nil {
			return err
		}
	}

	for _, in := range b.inputs {
		rows += in.t.NumRows()
	}
	cycle := median(cycleSec)
	r.e2e["rows_per_s"] = float64(rows) / cycle
	r.e2e["req_per_s"] = float64(len(b.inputs)) / cycle
	r.e2e["ratio"] = float64(out) / float64(raw)
	r.e2e["alloc_mb_per_op"] = mb(float64(allocBytes)) / float64(ops)
	r.setLatency("op", callMs, true)
	r.e2e["op_p50_ms"] = medianOfMedians(perInput)
	r.e2e["compress_p50_ms"] = r.e2e["op_p50_ms"]
	r.setLatency("query", queryMs, true)
	r.e2e["query_p50_ms"] = medianOfMedians(perInputQuery)
	r.e2e["query_bound_rel"] = median(rel)
	r.details["ops"] = ops
	r.details["cycle_s"] = cycleSec
	if o.trace {
		layers.report(r, b.c.segRows > 0, b.c.workers)
		r.layer["obs.trace_overhead_frac"] = (tracedNs/float64(tracedOps))/(untracedNs/float64(untracedOps)) - 1
	}
	return nil
}

// probeResult is one read-back query's time, check and interval width.
type probeResult struct {
	ms      float64
	err     error
	width   float64
	widthOK bool
}

// probe asks read-back query i of in's output and checks that the answer
// bounds the exact one.
func (b *compressBench) probe(r *run, in *compressInput, i int, traced bool) probeResult {
	var rec *recorder
	if traced {
		rec = r.spans
	}
	opID := rec.newOp()
	opSpan := rec.begin(opID, nil, "read-back", in.name)
	defer opSpan.end()
	// Each read-back query starts from a collected heap, so the garbage
	// of the compress cycle before it is not in its time.
	runtime.GC()
	start := time.Now()
	p := in.probes[i]
	got, err := b.c.readBack(rec, opID, opSpan, in, p.q)
	res := probeResult{ms: ms(time.Since(start))}
	if err == nil {
		res.width, res.widthOK, err = boundCheck(p.exact, got)
	}
	res.err = wrapErr(in.name+": read-back query "+p.name, err)
	return res
}

// quantileFault asks every read-back query of every monolithic output
// again, untimed, the way query.Run documents its tolerance argument: the
// quantile-form vector, which query.Run resolves against the decoded
// table. The decoded column's range can be narrower than the original's,
// so the resolved bound can be smaller than the one the compressor
// applied, and the interval can miss the exact answer. That engine fault
// is recorded as a known fault, in the details and the summary lines,
// not as a failed check: the timed read-back passes the absolute bounds
// instead (readTol), and its checks count. Once query.Run resolves
// quantile tolerances against the range the compressor used, no miss is
// recorded here and the read-back can pass in.tol again.
func (b *compressBench) quantileFault(r *run) error {
	asked := 0
	var misses []string
	for _, in := range b.inputs {
		dec, err := core.Decompress(bytes.NewReader(in.data))
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		for _, p := range in.probes {
			asked++
			got, err := query.Run(dec, in.tol, p.q)
			if err == nil {
				_, _, err = boundCheck(p.exact, got)
			}
			if err != nil {
				misses = append(misses, fmt.Sprintf("%s: quantile-form read-back query %s: %v", in.name, p.name, err))
			}
		}
	}
	r.details["known_fault_quantile_read_back"] = map[string]any{"asked": asked, "missed": len(misses)}
	r.knownFaults = append(r.knownFaults, misses...)
	return nil
}

// medianOfMedians is the median of each sample set's median.
func medianOfMedians(sets [][]float64) float64 {
	meds := make([]float64, len(sets))
	for i, xs := range sets {
		meds[i] = median(xs)
	}
	return median(meds)
}

// monoBaseline compresses each archive-large input once as one monolithic
// stream and once as a 1-worker segmented archive, giving the segmented
// writer's cost against the monolithic pipeline. The 1-worker archive
// must equal the verified parallel one byte for byte.
func (b *compressBench) monoBaseline(ctx context.Context, r *run) error {
	var mono compressor
	serial := b.c
	serial.workers = 1
	var monoBytes, segBytes int
	var monoTime, segTime time.Duration
	for _, in := range b.inputs {
		opID := r.spans.newOp()
		for _, c := range []compressor{mono, serial} {
			var buf bytes.Buffer
			sp := r.spans.begin(opID, nil, c.call(), in.name+" baseline")
			start := time.Now()
			_, err := c.write(ctx, &buf, in, nil)
			d := time.Since(start)
			sp.end()
			if err != nil {
				return fmt.Errorf("%s baseline: %w", in.name, err)
			}
			if c.segRows == 0 {
				monoBytes += buf.Len()
				monoTime += d
				continue
			}
			segBytes += buf.Len()
			segTime += d
			if sha256.Sum256(buf.Bytes()) != in.want {
				err = fmt.Errorf("%s: the 1-worker archive differs from the parallel one", in.name)
			}
			r.check(err)
		}
	}
	r.layer["archive.ratio_vs_mono"] = float64(segBytes) / float64(monoBytes)
	r.layer["archive.time_vs_mono_1w"] = segTime.Seconds() / monoTime.Seconds()
	return nil
}

// phaseLayers maps each engine phase span to its layer's metric prefix.
var phaseLayers = []struct{ span, time, alloc string }{
	{core.SpanDependencyFinder, "bayesnet.build_ms", "bayesnet.alloc_mb"},
	{core.SpanCaRTSelection, "selector.select_ms", "selector.alloc_mb"},
	{core.SpanRowAggregation, "fascicle.cluster_ms", "fascicle.alloc_mb"},
	{core.SpanOutlierScan, "cart.outlier_scan_ms", "cart.alloc_mb"},
	{core.SpanEncode, "codec.encode_ms", "codec.alloc_mb"},
}

// compressLayers sums the traced ops' per-layer figures.
type compressLayers struct {
	ops     int
	callMs  float64
	phaseMs map[string]float64
	allocMB map[string]float64
	counts  map[string]float64
}

func newCompressLayers() *compressLayers {
	return &compressLayers{phaseMs: map[string]float64{}, allocMB: map[string]float64{}, counts: map[string]float64{}}
}

func (a *compressLayers) add(res opResult) {
	a.ops++
	a.callMs += ms(res.call)
	for _, sp := range res.tr.Spans() {
		a.phaseMs[sp.Name] += ms(sp.Duration())
		if rs, ok := sp.Resources(); ok {
			a.allocMB[sp.Name] += mb(float64(rs.AllocBytes))
		}
	}
	for _, st := range res.stats {
		a.counts["selector.carts_built"] += float64(st.CartsBuilt)
		a.counts["fascicle.fascicles"] += float64(st.Fascicles)
		a.counts["cart.outliers"] += float64(st.Outliers)
		a.counts["codec.tprime_bytes"] += float64(st.TPrimeBytes)
		a.counts["codec.model_bytes"] += float64(st.ModelBytes)
		a.counts["codec.header_bytes"] += float64(st.HeaderBytes)
	}
}

// report sets the per-op means. On a segmented archive the phases of
// concurrent segments overlap, so their times sum to busy time and their
// allocation figures are approximate.
func (a *compressLayers) report(r *run, segmented bool, workers int) {
	n := float64(a.ops)
	var phases float64
	for _, p := range phaseLayers {
		r.layer[p.time] = a.phaseMs[p.span] / n
		r.layer[p.alloc] = a.allocMB[p.span] / n
		phases += a.phaseMs[p.span]
	}
	for k, v := range a.counts {
		r.layer[k] = v / n
	}
	if segmented {
		r.layer["archive.write_ms"] = a.callMs / n
		r.layer["archive.busy_ms"] = phases / n
		r.layer["archive.parallel_eff"] = phases / (float64(workers) * a.callMs)
		r.details["alloc_mb_approximate"] = true
		return
	}
	r.layer["core.compress_ms"] = a.callMs / n
	r.layer["core.unattributed_ms"] = (a.callMs - phases) / n
}
