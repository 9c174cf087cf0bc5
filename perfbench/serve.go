package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service"
)

// The serve-* workloads drive internal/service in-process over loopback,
// with the default service.Config, from one load generator holding at most
// nproc connections (reference.json sets how many). Ops arrive open-loop at
// a fixed rate; an op that finds every connection busy waits, and its
// latency counts from its due time.

const (
	serveSetupRounds = 15 // set-up repetitions; setup_s is their median
	pageSize         = 10 // the service's default page size
	batchSize        = 8
	diverseK         = 5
)

// op is one client operation: its request, its schedule and, after the
// run, what came back.
type op struct {
	kind string // session, ndjson, batch, csp, orbit, diverse, mis
	path string
	body []byte
	due  time.Duration

	// Check inputs: the graph in the client's labeling and its cost; a
	// template index when the op relabels a fixed template (-1 otherwise).
	g          *graph.Graph
	cost       string
	tmpl       int
	maxResults int

	rec opRecord
}

// opRecord is the timing and the compacted output of one op.
type opRecord struct {
	start, hdr, first, end time.Duration // since the phase start
	freed                  time.Duration // connection free again (sessions closed)
	lag                    time.Duration // real start minus planned start
	ok                     bool
	err                    string
	bytes                  int64
	raw                    [][]byte // response bodies, compacted after the run

	results    int
	indices    []int
	costs      []float64
	orbitSizes []int64
	keys       []string    // result fingerprints, for distinctness
	pages      [][]float64 // batch: first-page costs per item
	summary    int         // NDJSON summary count (-1 if absent)
	cspCount   int64
	cspSat     bool
	hasCSP     bool
}

// serveSpec is one serve-* workload: its parameters and its op generator.
type serveSpec struct {
	name   string
	params serveParams
	// ops builds the n ops of a run from the workload seed.
	ops func(seed int64, n int) []*op
	// probe builds ops for the endpoint kinds the load mix lacks, which a
	// traced run exercises after the load.
	probe func(seed int64) []*op
}

// server is one in-process daemon on a loopback port.
type server struct {
	svc    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServer(conns int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: service.New(service.Config{}), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.svc}
	go func() {
		s.hs.Serve(ln)
		close(s.done)
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// stop shuts the daemon down and waits for its serve loop to end.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.svc.Close()
	s.client.CloseIdleConnections()
}

func (s *server) stats() (service.StatsResponse, error) {
	var st service.StatsResponse
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// phase is the raw outcome of one load phase.
type phase struct {
	ops    []*op
	wall   time.Duration
	allocs uint64
	heapMB float64
}

func runServe(opts runOpts, ref *reference, spec serveSpec) (*report, error) {
	rep := newReport()
	conns := min(spec.params.Connections, runtime.NumCPU())
	warm := spec.params.WarmupOps
	n := int(spec.params.RatePerS * opts.seconds.Seconds())
	if opts.trace {
		n /= 2
	}
	// setup_s is process CPU time (cpuNow) scaled to the reference host
	// speed by a calibration after each round, as rank-sepdense's times
	// are: the time the host takes for other guests, and its speed, do
	// not count as set-up work.
	var setups, cals []float64
	var ops []*op
	var srv *server
	for i := 0; i < serveSetupRounds; i++ {
		if srv != nil {
			srv.stop()
		}
		runtime.GC()
		c0 := cpuNow()
		ops = spec.ops(opts.seed, warm+n)
		var err error
		if srv, err = startServer(conns); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
		cals = append(cals, ms(calibrate()))
	}
	rep.metrics["setup_s"] = exact(median(setups)*ref.CalibrationMs/median(cals), len(setups))

	// The warm-up ops (the schedule's first ones) fill the daemon's caches
	// and grow the heap; they are checked but not timed.
	checkServe(rep, loadPhase(srv, ops[:warm], spec.params.RatePerS, conns, nil).ops)
	if !opts.trace {
		defer srv.stop()
		ph := loadPhase(srv, ops[warm:], spec.params.RatePerS, conns, nil)
		serveMetrics(rep, ph, spec)
		checkServe(rep, ph.ops)
		return rep, nil
	}

	// Traced: the same ops untraced, then traced on a fresh, warmed
	// daemon; the headline difference is the tracing overhead.
	plain := loadPhase(srv, ops[warm:], spec.params.RatePerS, conns, nil)
	srv.stop()
	checkServe(rep, plain.ops)
	ops = spec.ops(opts.seed, warm+n)
	srv, err := startServer(conns)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	checkServe(rep, loadPhase(srv, ops[:warm], spec.params.RatePerS, conns, nil).ops)
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced := loadPhase(srv, ops[warm:], spec.params.RatePerS, conns, tr)
	after, err := srv.stats()
	if err != nil {
		return nil, err
	}
	checkServe(rep, traced.ops)
	p0, _ := percentile(latencies(plain.ops), 0.5)
	p1, _ := percentile(latencies(traced.ops), 0.5)
	rep.metrics["harness.trace_overhead_pct"] = exact(100*(p1-p0)/p0, len(traced.ops))
	rep.note("tracing overhead: lat_ms_p50 %.4f untraced, %.4f traced", p0, p1)
	rep.metrics["harness.op_self_us_p50"] = pct(tr.opSelfTimes(), 0.5)
	var lags []float64
	for _, o := range traced.ops {
		lags = append(lags, ms(o.rec.lag))
	}
	rep.metrics["harness.lag_ms_p95"] = pct(lags, 0.95)
	serviceCounters(rep, before, after, traced.ops)

	// Endpoints the mix does not use are exercised after the load, so
	// every service.* metric has samples on every workload.
	probes := spec.probe(opts.seed)
	runSequential(srv, probes, tr)
	checkServe(rep, probes)
	endpointMetrics(rep, tr)
	writeSpans(rep, tr, spec.name, opts.seed)
	layerPass(rep, serveLayerInputs(append(traced.ops, probes...)))
	return rep, nil
}

func latencies(ops []*op) []float64 {
	var out []float64
	for _, o := range ops {
		out = append(out, ms(o.latency()))
	}
	return out
}

// latency is the op's time from its due time to its last byte, less the
// generator's own lateness (rec.lag): what the op would have seen from a
// punctual generator. Waiting for a busy connection still counts.
func (o *op) latency() time.Duration { return o.rec.end - o.due - o.rec.lag }

// loadPhase runs ops open-loop: op i is due at i/rate after the phase
// start, and conns workers take ops in due order. Replaying the run through
// planStarts gives each op's planned start; the generator's lag is how much
// later it really started. Bodies are only read during the phase; they are
// parsed after it, before the heap is measured.
func loadPhase(srv *server, ops []*op, rate float64, conns int, tr *tracer) phase {
	for i, o := range ops {
		o.due = time.Duration(float64(i) / rate * float64(time.Second))
		o.rec = opRecord{}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				time.Sleep(time.Until(t0.Add(o.due)))
				o.rec.start = time.Since(t0)
				id := tr.newID()
				execute(srv, o, t0, tr, id)
				o.rec.end = time.Since(t0)
				tr.add(id, 0, "op."+o.kind, t0.Add(o.rec.start), t0.Add(o.rec.end))
				closeSessions(srv, o)
				o.rec.freed = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	dues, busy := make([]time.Duration, len(ops)), make([]time.Duration, len(ops))
	for i, o := range ops {
		dues[i], busy[i] = o.due, o.rec.freed-o.rec.start
	}
	for i, planned := range planStarts(dues, busy, conns) {
		ops[i].rec.lag = ops[i].rec.start - planned
	}
	for _, o := range ops {
		compact(o)
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return phase{ops: ops, wall: wall, allocs: m1.Mallocs - m0.Mallocs, heapMB: float64(m.HeapAlloc) / (1 << 20)}
}

// runSequential runs ops one after another, outside any load phase.
func runSequential(srv *server, ops []*op, tr *tracer) {
	t0 := time.Now()
	for _, o := range ops {
		o.rec = opRecord{start: time.Since(t0)}
		id := tr.newID()
		execute(srv, o, t0, tr, id)
		o.rec.end = time.Since(t0)
		tr.add(id, 0, "op."+o.kind, t0.Add(o.rec.start), t0.Add(o.rec.end))
		closeSessions(srv, o)
		compact(o)
	}
}

// execute performs one op's HTTP calls, recording the time to the first
// response's headers, to the first result, and to the last byte.
func execute(srv *server, o *op, t0 time.Time, tr *tracer, opID int64) {
	r := &o.rec
	r.ok = true
	call := func(name, method, path string, body []byte, stream bool) []byte {
		start := time.Now()
		defer func() { tr.add(tr.newID(), opID, name, start, time.Now()) }()
		req, err := http.NewRequest(method, srv.url+path, bytes.NewReader(body))
		if err != nil {
			r.ok, r.err = false, fmt.Sprintf("%s: %v", name, err)
			return nil
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := srv.client.Do(req)
		if r.hdr == 0 {
			r.hdr = time.Since(t0)
		}
		if err != nil {
			r.ok, r.err = false, fmt.Sprintf("%s: %v", name, err)
			return nil
		}
		defer resp.Body.Close()
		var buf []byte
		if stream {
			br := bufio.NewReader(resp.Body)
			line, err := br.ReadBytes('\n')
			if err == nil && r.first == 0 && !bytes.Contains(line, []byte(`"done"`)) {
				r.first = time.Since(t0)
			}
			rest, _ := io.ReadAll(br)
			buf = append(line, rest...)
		} else {
			buf, err = io.ReadAll(resp.Body)
			if err == nil && r.first == 0 {
				r.first = time.Since(t0)
			}
		}
		r.bytes += int64(len(buf))
		if resp.StatusCode != http.StatusOK {
			r.ok, r.err = false, fmt.Sprintf("%s: status %d: %s", name, resp.StatusCode, strings.TrimSpace(string(buf)))
			return nil
		}
		r.raw = append(r.raw, buf)
		return buf
	}
	switch o.kind {
	case "session":
		buf := call("enumerate", "POST", o.path, o.body, false)
		for page := 0; page < 2 && buf != nil; page++ {
			var resp service.EnumerateResponse
			if json.Unmarshal(buf, &resp) != nil || resp.Done || resp.Session == "" {
				break
			}
			buf = call("next", "GET", "/v1/sessions/"+resp.Session+"/next", nil, false)
		}
	case "ndjson", "orbit", "mis":
		call(o.kind, "POST", o.path, o.body, true)
	default: // batch, csp, diverse
		call(o.kind, "POST", o.path, o.body, false)
	}
}

// closeSessions deletes the sessions an op left open, as a client that is
// done paging would; otherwise parked sessions fill the session table.
// It runs after the op's end time is taken.
func closeSessions(srv *server, o *op) {
	if len(o.rec.raw) == 0 {
		return
	}
	var tokens []string
	last := o.rec.raw[len(o.rec.raw)-1]
	switch o.kind {
	case "session", "csp":
		var resp service.EnumerateResponse
		if json.Unmarshal(last, &resp) == nil && resp.Session != "" {
			tokens = append(tokens, resp.Session)
		}
	case "batch":
		var resp service.BatchResponse
		if json.Unmarshal(last, &resp) == nil {
			for _, it := range resp.Items {
				if it.Response != nil && it.Response.Session != "" {
					tokens = append(tokens, it.Response.Session)
				}
			}
		}
	}
	for _, tok := range tokens {
		req, err := http.NewRequest("DELETE", srv.url+"/v1/sessions/"+tok, nil)
		if err != nil {
			continue
		}
		if resp, err := srv.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// wireLine is one NDJSON line: a result, or the closing summary.
type wireLine struct {
	service.TriangulationJSON
	Done  *bool `json:"done"`
	Count *int  `json:"count"`
}

// compact parses an op's bodies into the few fields the checks need and
// drops the bodies.
func compact(o *op) {
	r := &o.rec
	r.summary = -1
	add := func(t service.TriangulationJSON) {
		r.results++
		r.indices = append(r.indices, t.Index)
		r.costs = append(r.costs, t.Cost)
		r.orbitSizes = append(r.orbitSizes, t.OrbitSize)
		if o.kind == "mis" || o.kind == "diverse" {
			r.keys = append(r.keys, bagsKey(t.Bags))
		}
	}
	for _, buf := range r.raw {
		switch o.kind {
		case "ndjson", "orbit", "mis":
			for _, line := range bytes.Split(bytes.TrimSpace(buf), []byte("\n")) {
				var l wireLine
				if err := json.Unmarshal(line, &l); err != nil {
					r.ok, r.err = false, "bad NDJSON line: "+err.Error()
					break
				}
				if l.Done != nil {
					if !*l.Done || l.Count == nil {
						r.ok, r.err = false, "stream ended early: "+string(line)
					} else {
						r.summary = *l.Count
					}
					continue
				}
				add(l.TriangulationJSON)
			}
		case "batch":
			var resp service.BatchResponse
			if err := json.Unmarshal(buf, &resp); err != nil || resp.Errors > 0 {
				r.ok, r.err = false, fmt.Sprintf("batch: %v, %d member errors", err, resp.Errors)
				break
			}
			for _, it := range resp.Items {
				var page []float64
				if it.Response != nil {
					for _, t := range it.Response.Results {
						page = append(page, t.Cost)
						r.results++
					}
				}
				r.pages = append(r.pages, page)
			}
		default:
			var resp service.EnumerateResponse
			if err := json.Unmarshal(buf, &resp); err != nil {
				r.ok, r.err = false, "bad JSON: "+err.Error()
				break
			}
			for _, t := range resp.Results {
				add(t)
			}
			if resp.CSP != nil {
				r.hasCSP, r.cspSat = true, resp.CSP.Satisfiable
				if resp.CSP.Count != nil {
					r.cspCount = *resp.CSP.Count
				}
			}
		}
	}
	r.raw = nil
}

func bagsKey(bags [][]int) string {
	parts := make([]string, len(bags))
	for i, b := range bags {
		parts[i] = fmt.Sprint(b)
	}
	sort.Strings(parts)
	return strings.Join(parts, "")
}

// serveMetrics turns one phase into the end-to-end metrics.
func serveMetrics(rep *report, ph phase, spec serveSpec) {
	var inits, firsts, delays, lats, ttfrs []float64
	var outcomes []opOutcome
	results := 0
	for _, o := range ph.ops {
		r := o.rec
		lat := o.latency()
		lats = append(lats, ms(lat))
		outcomes = append(outcomes, opOutcome{OK: r.ok, Latency: lat})
		results += r.results
		if !r.ok {
			continue
		}
		inits = append(inits, ms(r.hdr-r.start))
		if r.results > 0 {
			firsts = append(firsts, ms(r.first-r.start))
			ttfrs = append(ttfrs, ms(r.first-o.due-r.lag))
		}
		// Delay is the mean gap per result after the first within a paged
		// session: the next-page calls over the results they bring. A
		// stream's results arrive in one response, microseconds apart,
		// and those gaps measured the client's read buffering more than
		// the server.
		if o.kind == "session" && r.results >= 2 {
			delays = append(delays, ms(r.end-r.first)/float64(r.results-1))
		}
	}
	limit := time.Duration(spec.params.LatencyLimitMs * float64(time.Millisecond))
	rep.metrics["init_ms_p50"] = pct(inits, 0.5)
	rep.metrics["first_ms_p50"] = pct(firsts, 0.5)
	rep.metrics["delay_ms_p50"] = pct(delays, 0.5)
	rep.metrics["delay_ms_p95"] = pct(delays, 0.95)
	rep.metrics["results_per_s"] = exact(float64(results)/ph.wall.Seconds(), results)
	rep.metrics["lat_ms_p50"] = pct(lats, 0.5)
	rep.metrics["lat_ms_p95"] = pct(lats, 0.95)
	rep.metrics["ttfr_ms_p50"] = pct(ttfrs, 0.5)
	rep.metrics["goodput_rps"] = exact(goodput(outcomes, limit, ph.wall), len(outcomes))
	rep.metrics["allocs_per_result"] = exact(float64(ph.allocs)/float64(max(results, 1)), results)
	rep.metrics["heap_mb"] = exact(ph.heapMB, 1)
}

// serviceCounters derives the service.* counter metrics from the /v1/stats
// snapshots around the traced phase.
func serviceCounters(rep *report, before, after service.StatsResponse, ops []*op) {
	ratio := func(hits, total uint64) value {
		if total == 0 {
			return exact(0, 0)
		}
		return exact(float64(hits)/float64(total), int(total))
	}
	poolHits := after.Pool.Hits - before.Pool.Hits
	poolMiss := after.Pool.Misses - before.Pool.Misses
	rep.metrics["service.pool.hit_ratio"] = ratio(poolHits, poolHits+poolMiss)
	rep.metrics["service.pool.evictions"] = exact(float64(after.Pool.Evictions-before.Pool.Evictions), 1)
	stHits := after.Streams.Hits - before.Streams.Hits
	stMiss := after.Streams.Misses - before.Streams.Misses
	rep.metrics["service.streams.hit_ratio"] = ratio(stHits, stHits+stMiss)
	rep.metrics["service.streams.evictions"] = exact(float64(after.Streams.Evictions-before.Streams.Evictions), 1)
	rep.metrics["service.streams.rebuilds"] = exact(float64(after.Streams.Rebuilds-before.Streams.Rebuilds), 1)
	rep.metrics["service.canon.hit_ratio"] = ratio(after.Canon.Hits-before.Canon.Hits, after.Canon.Requests-before.Canon.Requests)
	rep.metrics["service.canon.fallbacks"] = exact(float64(after.Canon.Fallbacks-before.Canon.Fallbacks), 1)
	results, bytes := 0, int64(0)
	for _, o := range ops {
		results += o.rec.results
		bytes += o.rec.bytes
	}
	solves := (after.Prefetch.DemandSolves - before.Prefetch.DemandSolves) + (after.Prefetch.PrefetchSolves - before.Prefetch.PrefetchSolves)
	rep.metrics["service.prefetch.useful_ratio"] = exact(float64(results)/float64(max(solves, 1)), int(solves))
	rep.metrics["service.bytes_per_result"] = exact(float64(bytes)/float64(max(results, 1)), results)
}

// endpointMetrics reports per-endpoint HTTP call latency from the spans.
func endpointMetrics(rep *report, tr *tracer) {
	for _, ep := range serviceEndpoints {
		xs := tr.byName(ep)
		rep.metrics["service."+ep+"_ms_p50"] = pct(xs, 0.5)
		rep.metrics["service."+ep+"_ms_p95"] = pct(xs, 0.95)
	}
}

// ---- op construction ----

func graphRequest(g *graph.Graph, costName string) service.EnumerateRequest {
	return service.EnumerateRequest{N: g.Universe(), Edges: g.Edges(), Cost: costName}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// newOp builds a single-graph op of the given kind; param is max_results
// for the streaming kinds.
func newOp(kind string, g *graph.Graph, costName string, tmpl, param int) *op {
	o := &op{kind: kind, path: "/v1/enumerate", g: g, cost: costName, tmpl: tmpl, maxResults: param}
	req := graphRequest(g, costName)
	switch kind {
	case "ndjson":
		req.Stream, req.MaxResults = true, param
	case "orbit":
		o.path += "?orbits=true"
		req.Stream, req.MaxResults = true, param
	case "mis":
		o.path += "?backend=mis"
		req.Stream, req.MaxResults = true, param
	case "diverse":
		o.path += fmt.Sprintf("?diverse=%d", diverseK)
	}
	o.body = mustJSON(req)
	return o
}

// batchOp submits batchSize relabelings of g in one /v1/batch request.
func batchOp(rng *rand.Rand, g *graph.Graph, costName string, tmpl int) *op {
	var req service.BatchRequest
	for i := 0; i < batchSize; i++ {
		req.Problems = append(req.Problems, graphRequest(gen.Relabel(rng, g), costName))
	}
	return &op{kind: "batch", path: "/v1/batch", body: mustJSON(req), g: g, cost: costName, tmpl: tmpl}
}

// cspOp is 3-colouring of g as a binary CSP, asking for solve and count.
func cspOp(g *graph.Graph, tmpl int) *op {
	req := service.CSPRequest{Domains: make([]int, g.Universe()), Solve: true, Count: true}
	for v := range req.Domains {
		req.Domains[v] = 3
	}
	for _, e := range g.Edges() {
		c := service.CSPConstraint{Scope: [2]int{e[0], e[1]}}
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				if a != b {
					c.Allowed = append(c.Allowed, [2]int{a, b})
				}
			}
		}
		req.Constraints = append(req.Constraints, c)
	}
	return &op{kind: "csp", path: "/v1/csp", body: mustJSON(req), g: g, cost: "statespace", tmpl: tmpl}
}
