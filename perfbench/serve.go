package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/table"
)

const (
	// serveClients is the number of closed-loop clients: two, never more
	// than the CPUs of the 2-CPU machine the sizes were chosen on.
	serveClients = 2
	// serveQueryTol is the prebuilt archive's numeric tolerance, which
	// every /query passes back.
	serveQueryTol = 0.02
	// serveCompressTol is the /compress tolerance; compressPath asks for it.
	serveCompressTol = 0.01
	compressPath     = "/compress?tolerance=0.01"
	// serveCompressTables is how many distinct /compress tables a run
	// draws from.
	serveCompressTables = 3
	// serveCycles is the length of the request sequence in decks; the
	// clients wrap around if they run past its end.
	serveCycles = 400
	// traceBlock is how many consecutive requests share one traced or
	// untraced state on a traced run.
	traceBlock = 20
	// rateBlock is how many consecutive completions one rate sample spans.
	rateBlock = 10
)

// deck is one shuffled cycle of the request sequence: 9 queries for
// every /compress, about half of them key-range.
var deck = []int{kindCompress, kindKeyRange, kindKeyRange, kindKeyRange, kindKeyRange,
	kindNonKey, kindNonKey, kindNonKey, kindNonKey, kindNonKey}

const (
	kindCompress = -1
	kindKeyRange = 0 // index into queryKinds
	kindNonKey   = 1
)

// serveQuery is one distinct /query request with its exact answer on the
// original table.
type serveQuery struct {
	kind   int
	params string // URL query string
	q      query.Query
	exact  *query.Result
}

// serveRequest is one entry of the request sequence.
type serveRequest struct {
	kind  int
	path  string // URL path and query string
	body  []byte
	comp  *compressInput // kindCompress: the table and its verified output
	query *serveQuery    // otherwise
}

// serveBench is a running spartan server with its prebuilt inputs.
type serveBench struct {
	orig     *table.Table // the archive's rows, ordered by start_hour
	archive  []byte
	queryTol table.Tolerances
	comps    []*compressInput
	bodies   [][]byte // comps[i]'s binary request body
	seq      []serveRequest

	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// setupServeMixed builds serve-mixed: a v2 archive of ServeRows CDR rows
// ordered by start_hour in segments of ServeSegRows rows at 2%
// tolerance, serveCompressTables binary CDR tables for /compress, the
// seeded request sequence with every query's exact answer, and a server
// from server.New with spartand's default options on a loopback port.
func setupServeMixed(o *options, r *run) (bench, error) {
	rng := rand.New(rand.NewSource(o.seed))
	b := &serveBench{}

	var err error
	if b.orig, err = sortedBy(datagen.CDR(o.size.ServeRows, rng.Int63()), "start_hour"); err != nil {
		return nil, err
	}
	b.queryTol = table.UniformTolerances(b.orig, serveQueryTol, 0)
	var buf bytes.Buffer
	if _, err := archive.WriteTableContext(context.Background(), &buf, b.orig, core.Options{Tolerances: b.queryTol},
		archive.SegmentOptions{SegmentRows: o.size.ServeSegRows}); err != nil {
		return nil, fmt.Errorf("prebuilt archive: %w", err)
	}
	b.archive = buf.Bytes()
	c := compressor{segRows: o.size.ServeSegRows}
	r.check(wrapErr("prebuilt archive: verify", c.verify(&compressInput{t: b.orig, tol: b.queryTol, data: b.archive})))

	hashes := map[string]string{}
	for i := 0; i < serveCompressTables; i++ {
		in, body, err := compressTable(datagen.CDR(o.size.ServeCompRows, rng.Int63()), fmt.Sprintf("cdr-%d", i))
		if err != nil {
			return nil, err
		}
		r.check(wrapErr(in.name+": verify", compressor{}.verify(in)))
		b.comps = append(b.comps, in)
		b.bodies = append(b.bodies, body)
		hashes[in.name] = hex.EncodeToString(in.want[:])
	}
	r.details["output_sha256"] = hashes

	if err := b.buildSequence(rng); err != nil {
		return nil, err
	}
	if err := b.start(); err != nil {
		return nil, err
	}
	return b, nil
}

func wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

// sortedBy returns t's rows stably ordered by a numeric column, the way
// a call log arrives in time order.
func sortedBy(t *table.Table, column string) (*table.Table, error) {
	c := t.Schema().Index(column)
	if c < 0 {
		return nil, fmt.Errorf("no column %q", column)
	}
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(a, b int) bool { return t.Float(rows[a], c) < t.Float(rows[b], c) })
	return t.SelectRows(rows)
}

// compressTable prepares one /compress input: the binary request body,
// the table the server parses from it, and its verified output — what
// core.CompressContext gives for it at serveCompressTol with the
// server's default options.
func compressTable(t *table.Table, name string) (*compressInput, []byte, error) {
	var body bytes.Buffer
	if err := table.WriteBinary(&body, t); err != nil {
		return nil, nil, err
	}
	parsed, err := table.ReadBinary(bytes.NewReader(body.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	in := &compressInput{
		name: name,
		t:    parsed,
		tol:  table.UniformTolerances(parsed, serveCompressTol, 0),
		raw:  parsed.RawSizeBytes(),
	}
	var out bytes.Buffer
	if _, err := (compressor{}).write(context.Background(), &out, in, nil); err != nil {
		return nil, nil, err
	}
	in.data = out.Bytes()
	in.want = sha256.Sum256(in.data)
	return in, body.Bytes(), nil
}

// buildSequence draws the request sequence, deck by deck, and computes
// the exact answer of every distinct query on the original table.
func (b *serveBench) buildSequence(rng *rand.Rand) error {
	distinct := map[string]*serveQuery{}
	for cycle := 0; cycle < serveCycles; cycle++ {
		kinds := append([]int(nil), deck...)
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			if k == kindCompress {
				i := rng.Intn(len(b.comps))
				b.seq = append(b.seq, serveRequest{kind: k, path: compressPath, body: b.bodies[i], comp: b.comps[i]})
				continue
			}
			params := drawQuery(k, rng)
			sq, ok := distinct[params.Encode()]
			if !ok {
				var err error
				if sq, err = b.prepareQuery(k, params); err != nil {
					return err
				}
				distinct[sq.params] = sq
			}
			b.seq = append(b.seq, serveRequest{kind: k, path: "/query?" + sq.params, body: b.archive, query: sq})
		}
	}
	return nil
}

// Query templates. Key-range queries select two or three hours of the
// start_hour order the archive was written in, so zone maps prune most
// segments; non-key queries filter or group on columns every segment
// spans, so every segment decodes.
var (
	serveAggs = []struct{ agg, col string }{
		{"count", ""}, {"sum", "duration_sec"}, {"avg", "charge_cents"},
	}
	nonKeyWheres = []string{
		"duration_sec > 200",
		"duration_sec > 400",
		"plan == 'basic'",
		"plan == 'business' && duration_sec > 100",
		"call_type == 'long_distance'",
		"",
	}
	nonKeyGroups = []string{"", "plan", "call_type"}
)

func drawQuery(kind int, rng *rand.Rand) url.Values {
	a := serveAggs[rng.Intn(len(serveAggs))]
	v := url.Values{"agg": {a.agg}, "tolerance": {strconv.FormatFloat(serveQueryTol, 'g', -1, 64)}}
	if a.col != "" {
		v.Set("col", a.col)
	}
	if kind == kindKeyRange {
		lo := rng.Intn(22)
		hi := lo + 2 + rng.Intn(2)
		v.Set("where", fmt.Sprintf("start_hour >= %d && start_hour < %d", lo, hi))
		return v
	}
	where := nonKeyWheres[rng.Intn(len(nonKeyWheres))]
	group := nonKeyGroups[rng.Intn(len(nonKeyGroups))]
	if where == "" && group == "" {
		group = "plan"
	}
	if where != "" {
		v.Set("where", where)
	}
	if group != "" {
		v.Set("groupby", group)
	}
	return v
}

// prepareQuery parses a drawn query the way the server does and computes
// its exact answer on the original table.
func (b *serveBench) prepareQuery(kind int, params url.Values) (*serveQuery, error) {
	where, err := query.ParsePredicate(params.Get("where"), b.orig.Schema())
	if err != nil {
		return nil, err
	}
	aggs := map[string]query.AggKind{"count": query.Count, "sum": query.Sum, "avg": query.Avg}
	q := query.Query{Agg: aggs[params.Get("agg")], Column: params.Get("col"), Where: where, GroupBy: params.Get("groupby")}
	exact, err := query.Run(b.orig, nil, q)
	if err != nil {
		return nil, fmt.Errorf("exact answer of %s: %w", params.Encode(), err)
	}
	return &serveQuery{kind: kind, params: params.Encode(), q: q, exact: exact}, nil
}

// start serves server.New with spartand's default options on a loopback
// port. The logger is an explicit discard logger: server.WithLogger(nil)
// panics on the first request.
func (b *serveBench) start() error {
	h := server.New(
		server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		server.WithRegistry(obs.NewRegistry()),
		server.WithMaxConcurrent(0),
		server.WithRequestTimeout(0),
		server.WithSegmentRows(0),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = &http.Server{Handler: h, ReadHeaderTimeout: time.Minute}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
	return nil
}

// close stops the server and waits for it to exit.
func (b *serveBench) close() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // every client has returned; nothing is in flight
	<-b.served
	b.client.CloseIdleConnections()
	b.srv = nil
}

// reqResult is what one request reports to the loop.
type reqResult struct {
	req    serveRequest
	traced bool
	rtt    time.Duration
	total  time.Duration // including the check and span recording
	done   time.Duration // completion, since the loop started
	err    error

	handler, open, agg time.Duration // X-Spartan-Timing-* headers
	decoded, pruned    int
	rel                float64
	relOK              bool
	rows, uncertain    int
	out                int
}

// measure runs the closed loop: serveClients clients each send the
// next request of the shared sequence as soon as their previous one
// returns, until o.seconds have passed. On a traced run requests are
// traced in alternating blocks of traceBlock. The request rate is taken
// from the median time rateBlock consecutive completions take, so a
// transient stall of the machine does not move it.
func (b *serveBench) measure(ctx context.Context, r *run) error {
	o := r.opts
	rejectedBefore, err := b.rejected(ctx)
	if err != nil {
		return err
	}
	var (
		next                = atomic.Int64{}
		wg                  sync.WaitGroup
		perClient           = make([][]reqResult, serveClients)
		memBefore, memAfter runtime.MemStats
		deadline            = time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	)
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				traced := o.trace && (i/traceBlock)%2 == 0
				res := b.do(ctx, r, b.seq[i%int64(len(b.seq))], traced)
				res.done = time.Since(start)
				perClient[c] = append(perClient[c], res)
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&memAfter)
	rejectedAfter, err := b.rejected(ctx)
	if err != nil {
		return err
	}

	var (
		all                                []reqResult
		opMs, queryMs, compMs, rel, doneAt []float64
		compRows, compRaw, compOut         int
	)
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	for _, res := range all {
		r.check(res.err)
		if res.err != nil {
			continue
		}
		opMs = append(opMs, ms(res.rtt))
		doneAt = append(doneAt, res.done.Seconds())
		if res.req.kind == kindCompress {
			compMs = append(compMs, ms(res.rtt))
			compRows += res.req.comp.t.NumRows()
			compRaw += res.req.comp.raw
			compOut += res.out
			continue
		}
		queryMs = append(queryMs, ms(res.rtt))
		if res.relOK {
			rel = append(rel, res.rel)
		}
	}
	sort.Float64s(doneAt)
	reqPerS := rate(doneAt, rateBlock)
	r.e2e["req_per_s"] = reqPerS
	r.e2e["rows_per_s"] = reqPerS * float64(compRows) / float64(len(opMs))
	r.e2e["ratio"] = float64(compOut) / float64(compRaw)
	r.e2e["alloc_mb_per_op"] = mb(float64(memAfter.TotalAlloc-memBefore.TotalAlloc)) / float64(len(all))
	r.e2e["query_bound_rel"] = median(rel)
	r.setLatency("op", opMs, true)
	r.setLatency("query", queryMs, true)
	r.setLatency("compress", compMs, false)
	r.details["requests"] = len(all)
	if o.trace {
		r.layer["server.rejected"] = rejectedAfter - rejectedBefore
		return b.reportLayers(r, all)
	}
	return nil
}

// do sends one request and checks its answer: a /query interval must
// contain the exact answer on the original table, a /compress body must
// equal its verified output.
func (b *serveBench) do(ctx context.Context, r *run, req serveRequest, traced bool) reqResult {
	start := time.Now()
	res := reqResult{req: req, traced: traced}
	var rec *recorder
	if traced {
		rec = r.spans
	}
	opID := rec.newOp()
	opSpan := rec.begin(opID, nil, "op", "")
	name := "POST /query"
	if req.kind == kindCompress {
		name = "POST /compress"
	}
	sp := rec.begin(opID, opSpan, name, req.path)
	resp, data, err := b.post(ctx, req.path, req.body)
	res.rtt = time.Since(start)
	sp.end()
	if err == nil {
		if req.kind == kindCompress {
			err = b.checkCompress(&res, resp, data)
		} else {
			err = b.checkQuery(&res, resp, data)
		}
	}
	res.err = wrapErr(req.path, err)
	opSpan.end()
	res.total = time.Since(start)
	return res
}

func (b *serveBench) post(ctx context.Context, path string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp, data, nil
}

func (b *serveBench) checkCompress(res *reqResult, resp *http.Response, data []byte) error {
	res.out = len(data)
	if sha256.Sum256(data) != res.req.comp.want {
		return fmt.Errorf("compressed body differs from the verified output")
	}
	var err error
	res.handler, err = time.ParseDuration(resp.Header.Get("X-Spartan-Timing-Total"))
	return err
}

// queryGroupJSON is one group of a /query answer.
type queryGroupJSON struct {
	Key       string   `json:"key"`
	Value     *float64 `json:"value"`
	Lo        *float64 `json:"lo"`
	Hi        *float64 `json:"hi"`
	Rows      int      `json:"rows"`
	Uncertain int      `json:"uncertain"`
}

func (b *serveBench) checkQuery(res *reqResult, resp *http.Response, data []byte) error {
	var answer struct {
		Groups []queryGroupJSON `json:"groups"`
	}
	if err := json.Unmarshal(data, &answer); err != nil {
		return fmt.Errorf("decoding the answer: %w", err)
	}
	got := &query.Result{}
	orNaN := func(p *float64) float64 {
		if p == nil {
			return math.NaN()
		}
		return *p
	}
	for _, g := range answer.Groups {
		got.Groups = append(got.Groups, query.Group{Key: g.Key, Value: orNaN(g.Value), Lo: orNaN(g.Lo), Hi: orNaN(g.Hi)})
		res.rows += g.Rows
		res.uncertain += g.Uncertain
	}
	var err error
	if res.rel, res.relOK, err = boundCheck(res.req.query.exact, got); err != nil {
		return err
	}
	h := resp.Header
	for _, f := range []struct {
		header string
		into   *time.Duration
	}{
		{"X-Spartan-Timing-Total", &res.handler},
		{"X-Spartan-Timing-Decode", &res.open},
		{"X-Spartan-Timing-Aggregate", &res.agg},
	} {
		if *f.into, err = time.ParseDuration(h.Get(f.header)); err != nil {
			return fmt.Errorf("%s: %w", f.header, err)
		}
	}
	if res.decoded, err = strconv.Atoi(h.Get("X-Spartan-Segments-Decoded")); err != nil {
		return err
	}
	res.pruned, err = strconv.Atoi(h.Get("X-Spartan-Segments-Pruned"))
	return err
}

// rejected reads the server's rejected-request total from /metrics.
func (b *serveBench) rejected(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "spartan_http_rejected_total") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// readLayers sums the traced requests' per-layer figures for one query
// kind.
type readLayers struct {
	n                         int
	handler, overhead         float64
	open, agg                 float64
	decoded, segments         int
	rows, uncertain           int
	rel                       []float64
	replayDecode, replayQuery []float64
	replays                   []reqResult
}

// reportLayers sets the serve-mixed per-layer metrics from the traced
// requests and from direct replays of SegReader.Segment and query.Run.
func (b *serveBench) reportLayers(r *run, all []reqResult) error {
	kinds := make([]readLayers, len(queryKinds))
	var (
		compHandler, tracedNs, untracedNs float64
		comps, tracedN, untracedN         int
	)
	for _, res := range all {
		if !res.traced {
			untracedNs += float64(res.total)
			untracedN++
			continue
		}
		tracedNs += float64(res.total)
		tracedN++
		if res.err != nil {
			continue
		}
		if res.req.kind == kindCompress {
			compHandler += ms(res.handler)
			comps++
			continue
		}
		k := &kinds[res.req.kind]
		k.n++
		k.handler += ms(res.handler)
		k.overhead += ms(res.rtt - res.handler)
		k.open += ms(res.open)
		k.agg += ms(res.agg)
		k.decoded += res.decoded
		k.segments += res.decoded + res.pruned
		k.rows += res.rows
		k.uncertain += res.uncertain
		if res.relOK {
			k.rel = append(k.rel, res.rel)
		}
		if len(k.replays) < replays {
			k.replays = append(k.replays, res)
		}
	}
	if comps > 0 {
		r.layer["server.compress_handler_ms"] = compHandler / float64(comps)
	}
	if tracedN > 0 && untracedN > 0 {
		r.layer["obs.trace_overhead_frac"] = (tracedNs/float64(tracedN))/(untracedNs/float64(untracedN)) - 1
	}
	rp, err := newReplayer(b)
	if err != nil {
		return err
	}
	defer rp.close()
	for ki, name := range queryKinds {
		k := &kinds[ki]
		if k.n == 0 {
			continue
		}
		for _, res := range k.replays {
			dec, run, decoded, err := rp.replay(r, res.req.query)
			if err != nil {
				return fmt.Errorf("replaying %s: %w", res.req.query.params, err)
			}
			k.replayDecode = append(k.replayDecode, dec)
			k.replayQuery = append(k.replayQuery, run)
			// A replay that decodes other segments than the server did
			// would time the wrong work, so it fails the run.
			if decoded != res.decoded {
				err = fmt.Errorf("replaying %s: decoded %d segments, the server %d",
					res.req.query.params, decoded, res.decoded)
			}
			r.check(err)
		}
		n := float64(k.n)
		set := func(metric string, v float64) { r.layer[metric+"."+name] = v }
		set("server.query_handler_ms", k.handler/n)
		set("server.overhead_ms", k.overhead/n)
		set("archive.open_ms", k.open/n)
		set("archive.query_ms", k.agg/n)
		set("archive.decoded_frac", float64(k.decoded)/float64(k.segments))
		if k.rows+k.uncertain > 0 {
			set("query.uncertain_rows_frac", float64(k.uncertain)/float64(k.rows+k.uncertain))
		}
		if len(k.rel) > 0 {
			set("query.bound_rel", median(k.rel))
		}
		set("codec.segment_decode_ms", mean(k.replayDecode))
		set("query.run_ms", mean(k.replayQuery))
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replayer re-runs a query's read path directly: SegReader.Segment for
// each segment the zone maps keep, then query.Run on those rows.
type replayer struct {
	sr   *archive.SegReader
	full *table.Table // every segment decoded, for assembling query input
	tol  table.Tolerances
}

func newReplayer(b *serveBench) (*replayer, error) {
	sr, err := archive.OpenSegmented(bytes.NewReader(b.archive))
	if err != nil {
		return nil, err
	}
	full, err := sr.ReadAll()
	if err != nil {
		_ = sr.Close() // the read error is the one to report
		return nil, err
	}
	return &replayer{sr: sr, full: full, tol: table.UniformTolerancesSchema(sr.Schema(), serveQueryTol, 0)}, nil
}

func (p *replayer) close() { _ = p.sr.Close() } // an in-memory reader cannot fail to close

// replay times SegReader.Segment over the segments sq would decode and
// query.Run over their rows, and returns both in milliseconds with the
// number of segments decoded.
func (p *replayer) replay(r *run, sq *serveQuery) (decodeMs, runMs float64, decoded int, err error) {
	opID := r.spans.newOp()
	opSpan := r.spans.begin(opID, nil, "replay", sq.params)
	defer opSpan.end()
	keep, err := keptSegments(p.sr, p.tol, sq.q.Where)
	if err != nil {
		return 0, 0, 0, err
	}
	var rows []int
	first := 0
	for i := 0; i < p.sr.NumSegments(); i++ {
		n := p.sr.Info(i).Rows
		if len(keep) > 0 && keep[0] == i {
			keep = keep[1:]
			sp := r.spans.begin(opID, opSpan, "SegReader.Segment", strconv.Itoa(i))
			start := time.Now()
			_, err := p.sr.Segment(i)
			decodeMs += ms(time.Since(start))
			sp.end()
			if err != nil {
				return 0, 0, 0, err
			}
			decoded++
			for j := first; j < first+n; j++ {
				rows = append(rows, j)
			}
		}
		first += n
	}
	t, err := p.full.SelectRows(rows)
	if err != nil {
		return 0, 0, 0, err
	}
	sp := r.spans.begin(opID, opSpan, "query.Run", "")
	start := time.Now()
	_, err = query.Run(t, p.tol, sq.q)
	runMs = ms(time.Since(start))
	sp.end()
	return decodeMs, runMs, decoded, err
}

// keptSegments lists the segments whose zone maps cannot refute where,
// by the rule SegReader.Query applies: tolerances resolve against the
// archive-wide zone ranges, then query.CanMatch tests each segment. The
// engine does not expose the segments a query kept, so this repeats its
// rule; every replay checks its count against the server's
// X-Spartan-Segments-Decoded, so a drift fails the run.
func keptSegments(sr *archive.SegReader, tol table.Tolerances, where query.Predicate) ([]int, error) {
	schema := sr.Schema()
	ranges := make([]float64, len(schema))
	colIdx := make(map[string]int, len(schema))
	for c, a := range schema {
		colIdx[a.Name] = c
		if a.Kind != table.Numeric {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < sr.NumSegments(); i++ {
			z := sr.Info(i).Zones[c]
			lo, hi = math.Min(lo, z.Min), math.Max(hi, z.Max)
		}
		ranges[c] = hi - lo
	}
	resolved, err := tol.ResolveRanges(schema, ranges)
	if err != nil {
		return nil, err
	}
	tolMap := make(map[string]float64, len(schema))
	for c, a := range schema {
		tolMap[a.Name] = resolved[c].Value
	}
	var keep []int
	for i := 0; i < sr.NumSegments(); i++ {
		zs := sr.Info(i).Zones
		zones := func(column string) (query.ColumnZone, bool) {
			c, ok := colIdx[column]
			if !ok {
				return query.ColumnZone{}, false
			}
			if schema[c].Kind == table.Numeric {
				return query.ColumnZone{Kind: table.Numeric, Lo: zs[c].Min, Hi: zs[c].Max}, true
			}
			return query.ColumnZone{Kind: table.Categorical, MayContain: zs[c].MayContain}, true
		}
		if query.CanMatch(where, zones, tolMap) {
			keep = append(keep, i)
		}
	}
	return keep, nil
}
