package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/chordal"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// rank-sepdense: the paper's setting. Each pass takes every corpus graph,
// under a fresh seeded relabeling and in a seeded order, builds a cold
// solver (core.New + Prepare) and takes the first results_per_graph ranked
// results from a sequential Enumerate(). The first pass warms the process
// (heap size, code and data caches) and is checked but not timed: without
// it the numbers depended on how many passes a run managed. The timed
// passes are whole passes, so every corpus graph weighs the same.
//
// Every rank-sepdense time is process CPU time (cpuNow) scaled to a
// reference host speed. The host of a shared VM takes CPU time for other
// guests (2–15% of it, varying from run to run), and the CPU it leaves
// runs faster or slower with what the other guests do. CPU time leaves
// out the stolen time, but for the same code and seed its delay p50 still
// read 4.4 ms in one run and 6.6 ms in another. The scale factor,
// calibration_ms in reference.json over the median of this run's
// calibrate() times (calib.go), takes out the host's speed. The
// enumeration is sequential, so on a quiet host its CPU time is its wall
// time; init builds blocks on GOMAXPROCS workers, so its CPU time is its
// total work, about 1.15 times its wall time on 2 CPUs, and a change that
// only spreads init over more cores will not show here. The unscaled CPU
// and wall-clock medians and the scale factor are printed as notes.
//
// The corpus graphs are of one size class (1300–1900 PMCs), and two in
// three are ranked by fill-in, so the init and first-result medians fall
// inside a dense run of samples rather than on a gap between two graphs or
// between the two costs, where relabeling noise flipped them from one
// side to the other.

const (
	rankPassSeconds = 7   // about one pass of the corpus on a 2.1 GHz Xeon
	rankMinPasses   = 2   // 2 passes × 11 graphs: ≥ 20 init samples for a p50
	rankSetupRounds = 101 // set-up repetitions; setup_s is their median
)

type rankInput struct {
	entry int // corpus index
	g     *graph.Graph
	c     cost.Cost
}

// rankInputs generates n relabeled passes over the corpus from the seed.
func rankInputs(ref *reference, seed int64, n int) [][]rankInput {
	base := make([]*graph.Graph, len(ref.Rank.Corpus))
	for i, e := range ref.Rank.Corpus {
		base[i] = e.graph()
	}
	rng := rand.New(rand.NewSource(seed))
	passes := make([][]rankInput, n)
	for p := range passes {
		for _, i := range rng.Perm(len(base)) {
			passes[p] = append(passes[p], rankInput{entry: i, g: gen.Relabel(rng, base[i]), c: costByName(ref.Rank.Corpus[i].Cost)})
		}
	}
	return passes
}

// rankSamples are the raw measurements of one rank phase.
type rankSamples struct {
	inits, firsts, delays, lats, ttfrs []float64 // CPU ms
	wallInits, wallDelays              []float64 // wall ms, for the note
	calib                              []float64 // calibrate() CPU ms, one per graph
	results                            int
	measured                           time.Duration // CPU time of the timed sections
	allocs                             uint64        // mallocs while enumerating
	heapMB                             float64
	outcomes                           []opOutcome
}

func runRank(opts runOpts, ref *reference) (*report, error) {
	rep := newReport()
	timed := max(rankMinPasses, int(opts.seconds/(rankPassSeconds*time.Second)))
	half := max(rankMinPasses, timed/2)
	total := 1 + timed
	if opts.trace {
		total = 1 + 2*half
	}
	var setups []float64
	var passes [][]rankInput
	for i := 0; i < rankSetupRounds; i++ {
		runtime.GC()
		c0 := cpuNow()
		passes = rankInputs(ref, opts.seed, total)
		setups = append(setups, (cpuNow() - c0).Seconds())
	}
	rankPhase(ref, passes[:1], nil, rep)

	if !opts.trace {
		rankMetrics(rep, rankPhase(ref, passes[1:], nil, rep), ref, setups)
		return rep, nil
	}

	// Traced: the same number of passes untraced, then traced, so the
	// overhead of tracing is their difference; then the offline layer
	// pass on the corpus.
	plain := rankPhase(ref, passes[1:1+half], nil, rep)
	tr := newTracer()
	traced := rankPhase(ref, passes[1+half:], tr, rep)
	p0, _ := percentile(plain.delays, 0.5)
	p1, _ := percentile(traced.delays, 0.5)
	rep.metrics["harness.trace_overhead_pct"] = exact(100*(p1-p0)/p0, len(traced.delays))
	rep.note("tracing overhead: delay_ms_p50 %.4f untraced, %.4f traced", p0, p1)
	rep.metrics["harness.op_self_us_p50"] = pct(tr.opSelfTimes(), 0.5)
	// The rank phase is closed-loop: nothing is scheduled, so the
	// generator lag is the gap between one op's end and the next start.
	rep.metrics["harness.lag_ms_p95"] = pct(closedLoopGaps(tr), 0.95)
	writeSpans(rep, tr, "rank-sepdense", opts.seed)

	var in layerInputs
	for _, x := range passes[0] {
		in.solve = append(in.solve, x)
		in.canon = append(in.canon, x.g)
	}
	in.orbit = []orbitInput{{passes[0][0].g, 10}, {passes[0][1].g, 10}}
	in.mis = []*graph.Graph{passes[0][0].g, passes[0][1].g}
	layerPass(rep, in)
	if err := probeService(rep, passes[0][:2], opts.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// closedLoopGaps returns, in ms, the time between the end of one root span
// and the start of the next.
func closedLoopGaps(t *tracer) []float64 {
	var out []float64
	var prevEnd time.Duration = -1
	for _, s := range t.spans {
		if s.Parent != 0 {
			continue
		}
		if prevEnd >= 0 && s.Start >= prevEnd {
			out = append(out, ms(s.Start-prevEnd))
		}
		prevEnd = s.End
	}
	return out
}

// rankPhase runs the given passes. Each graph's outputs are checked right
// after its timed section and then dropped; only the current pass's
// enumerators stay held, as the workload state heap_mb measures.
func rankPhase(ref *reference, passes [][]rankInput, tr *tracer, rep *report) rankSamples {
	var s rankSamples
	k := ref.Rank.ResultsPerGraph
	ctx := context.Background()
	var held []*core.Enumerator
	var ms0, ms1 runtime.MemStats
	for p := range passes {
		held = held[:0]
		for _, in := range passes[p] {
			rep.attempted++
			op := tr.newID()
			t0, c0 := time.Now(), cpuNow()
			solver, err := core.New(ctx, in.g, in.c, core.Options{})
			if err == nil {
				err = solver.Prepare(ctx)
			}
			t1, c1 := time.Now(), cpuNow()
			tr.add(tr.newID(), op, "init", t0, t1)
			if err != nil {
				rep.fail("corpus graph %d: init: %v", in.entry, err)
				continue
			}
			runtime.ReadMemStats(&ms0)
			e := solver.Enumerate()
			results := make([]*core.Result, 0, k)
			prev, cprev := time.Now(), cpuNow()
			for len(results) < k {
				r, ok := e.Next()
				now, cnow := time.Now(), cpuNow()
				if !ok {
					break
				}
				tr.add(tr.newID(), op, "next", prev, now)
				d := cnow - cprev
				s.lats = append(s.lats, ms(d))
				s.outcomes = append(s.outcomes, opOutcome{OK: true, Latency: d})
				if len(results) == 0 {
					s.firsts = append(s.firsts, ms(d))
					s.ttfrs = append(s.ttfrs, ms(cnow-c0))
				} else {
					s.delays = append(s.delays, ms(d))
					s.wallDelays = append(s.wallDelays, ms(now.Sub(prev)))
				}
				results = append(results, r)
				prev, cprev = now, cnow
			}
			t2, c2 := time.Now(), cpuNow()
			runtime.ReadMemStats(&ms1)
			tr.add(op, 0, "op.graph", t0, t2)
			s.allocs += ms1.Mallocs - ms0.Mallocs
			s.inits = append(s.inits, ms(c1-c0))
			s.wallInits = append(s.wallInits, ms(t1.Sub(t0)))
			s.measured += c2 - c0
			s.results += len(results)
			held = append(held, e)
			checkRanked(rep, ref, in, solver, results)
			s.calib = append(s.calib, ms(calibrate()))
		}
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.heapMB = float64(m.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(held)
	return s
}

func rankMetrics(rep *report, s rankSamples, ref *reference, setups []float64) {
	k := ref.CalibrationMs / median(s.calib)
	scaled := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	outcomes := make([]opOutcome, len(s.outcomes))
	for i, o := range s.outcomes {
		outcomes[i] = opOutcome{OK: o.OK, Latency: time.Duration(float64(o.Latency) * k)}
	}
	measured := time.Duration(float64(s.measured) * k)
	limit := time.Duration(ref.Rank.LatencyLimitMs * float64(time.Millisecond))
	delays := scaled(s.delays)
	lats := scaled(s.lats)
	rep.metrics["setup_s"] = exact(median(setups)*k, len(setups))
	rep.metrics["init_ms_p50"] = pct(scaled(s.inits), 0.5)
	rep.metrics["first_ms_p50"] = pct(scaled(s.firsts), 0.5)
	rep.metrics["delay_ms_p50"] = pct(delays, 0.5)
	rep.metrics["delay_ms_p95"] = pct(delays, 0.95)
	rep.metrics["results_per_s"] = exact(float64(s.results)/measured.Seconds(), s.results)
	rep.metrics["lat_ms_p50"] = pct(lats, 0.5)
	rep.metrics["lat_ms_p95"] = pct(lats, 0.95)
	rep.metrics["ttfr_ms_p50"] = pct(scaled(s.ttfrs), 0.5)
	rep.metrics["goodput_rps"] = exact(goodput(outcomes, limit, measured), len(outcomes))
	rep.metrics["allocs_per_result"] = exact(float64(s.allocs)/float64(s.results), s.results)
	rep.metrics["heap_mb"] = exact(s.heapMB, 1)
	ci, _ := percentile(s.inits, 0.5)
	cd, _ := percentile(s.delays, 0.5)
	wi, _ := percentile(s.wallInits, 0.5)
	wd, _ := percentile(s.wallDelays, 0.5)
	rep.note("calibration %.4f ms CPU (median of %d), reference %.4f ms: times scaled by %.4f", median(s.calib), len(s.calib), ref.CalibrationMs, k)
	rep.note("unscaled CPU time: init p50 %.4f ms, delay p50 %.4f ms", ci, cd)
	rep.note("wall clock: init p50 %.4f ms, delay p50 %.4f ms", wi, wd)
}

// checkRanked verifies one graph's ranked prefix, outside the timed
// section: non-decreasing costs, rank 1 equal to MinTriang(nil), every
// result a minimal triangulation, pairwise distinct, and the cost sequence
// equal to the reference solver's (by digest).
func checkRanked(rep *report, ref *reference, in rankInput, solver *core.Solver, results []*core.Result) {
	entry := ref.Rank.Corpus[in.entry]
	if len(results) != ref.Rank.ResultsPerGraph {
		rep.fail("corpus graph %d: %d results, want %d", in.entry, len(results), ref.Rank.ResultsPerGraph)
		return
	}
	best, err := solver.MinTriang(nil)
	if err != nil || best.Cost != results[0].Cost {
		rep.fail("corpus graph %d: rank 1 differs from MinTriang(nil)", in.entry)
		return
	}
	seen := map[string]bool{}
	for i, r := range results {
		if i > 0 && r.Cost < results[i-1].Cost {
			rep.fail("corpus graph %d: cost decreases at rank %d", in.entry, i+1)
			return
		}
		if !isMinimalTriangulation(r.H, in.g) {
			rep.fail("corpus graph %d: rank %d is not a minimal triangulation", in.entry, i+1)
			return
		}
		key := r.H.EdgeSetKey()
		if seen[key] {
			rep.fail("corpus graph %d: rank %d repeats an earlier result", in.entry, i+1)
			return
		}
		seen[key] = true
	}
	if d := costDigest(results); entry.Digest != "" && d != entry.Digest {
		rep.fail("corpus graph %d: cost digest %s, reference %s", in.entry, d, entry.Digest)
	}
}

// isMinimalTriangulation is the polynomial test of Rose, Tarjan and Lueker:
// a chordal supergraph H of G is a minimal triangulation iff removing any
// single fill edge breaks chordality. (bruteforce.IsMinimalTriangulation
// enumerates every minimal triangulation, which is out of reach at n ≈ 23;
// a test checks that the two agree on small graphs.)
func isMinimalTriangulation(h, g *graph.Graph) bool {
	if !chordal.IsTriangulationOf(h, g) {
		return false
	}
	for _, e := range chordal.FillEdges(g, h) {
		h2 := h.Clone()
		h2.RemoveEdge(e[0], e[1])
		if chordal.IsChordal(h2) {
			return false
		}
	}
	return true
}

func costDigest(results []*core.Result) string {
	h := sha256.New()
	for _, r := range results {
		h.Write([]byte(strconv.FormatFloat(r.Cost, 'g', -1, 64) + ";"))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recordDigests prints the corpus with the reference solver's digests
// (monolithic, full re-solve on every constrained call), for reference.json.
func recordDigests(ref *reference) error {
	for i := range ref.Rank.Corpus {
		e := &ref.Rank.Corpus[i]
		g := e.graph()
		s, err := core.New(context.Background(), g, costByName(e.Cost), core.Options{NoDecompose: true})
		if err != nil {
			return err
		}
		s.SetFullResolve(true)
		en := s.Enumerate()
		var rs []*core.Result
		for len(rs) < ref.Rank.ResultsPerGraph {
			r, ok := en.Next()
			if !ok {
				return fmt.Errorf("corpus graph %d has fewer than %d minimal triangulations", i, ref.Rank.ResultsPerGraph)
			}
			rs = append(rs, r)
		}
		e.Digest = costDigest(rs)
		fmt.Fprintf(os.Stderr, "graph %d n=%d %s: %d separators, %d PMCs, init %v\n", i, e.N, e.Cost, len(s.MinimalSeparators()), len(s.PMCs()), s.InitDuration)
	}
	out, err := json.MarshalIndent(ref.Rank.Corpus, "    ", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
