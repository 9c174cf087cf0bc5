package main

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/atoms"
	"repro/internal/ckk"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/minsep"
	"repro/internal/pmc"
	"repro/internal/vset"
)

// The offline layer pass of a traced run: after the load, it times calls
// into each layer's public functions on the inputs the workload used.

const (
	layerResults   = 10 // ranked results per input for the solve counters
	layerSolveSeps = 3  // separators per result for core.solve_us
	layerMaxSolve  = 12 // inputs for the minsep/pmc/core/cost/atoms pass
	layerMaxOrbit  = 6
	layerMaxMIS    = 4
	ckkResults     = 50
)

type orbitInput struct {
	g   *graph.Graph
	max int
}

type layerInputs struct {
	solve []rankInput    // minsep, pmc, core, cost, atoms
	canon []*graph.Graph // every op's input
	orbit []orbitInput   // graph.aut_us and orbit.*
	mis   []*graph.Graph // ckk.*
}

// layerPass computes the library per-layer metrics; per-input values are
// summarised by their median over the inputs.
func layerPass(rep *report, in layerInputs) {
	ctx := context.Background()
	var sepMs, sepN, pmcMs, pmcN, blkMs, blkN, initMs, restMs, initAllocs []float64
	var solveUs, solvesPer, bagNs, atomMs, atomN, atomMax []float64
	var reused, dirty uint64
	var m0, m1 runtime.MemStats
	for _, x := range limit(in.solve, layerMaxSolve) {
		g := x.g
		t0 := time.Now()
		seps := minsep.All(g)
		t1 := time.Now()
		pmcs := pmc.All(g)
		t2 := time.Now()
		blocks := pmc.FullBlocks(g, seps)
		t3 := time.Now()
		sepMs, sepN = append(sepMs, ms(t1.Sub(t0))), append(sepN, float64(len(seps)))
		pmcMs, pmcN = append(pmcMs, ms(t2.Sub(t1))), append(pmcN, float64(len(pmcs)))
		blkMs, blkN = append(blkMs, ms(t3.Sub(t2))), append(blkN, float64(len(blocks)))

		runtime.ReadMemStats(&m0)
		t4 := time.Now()
		s, err := core.New(ctx, g, x.c, core.Options{})
		if err == nil {
			err = s.Prepare(ctx)
		}
		t5 := time.Now()
		runtime.ReadMemStats(&m1)
		if err != nil {
			rep.fail("layer pass: init: %v", err)
			continue
		}
		initMs = append(initMs, ms(t5.Sub(t4)))
		restMs = append(restMs, ms(t5.Sub(t4)-t2.Sub(t0)))
		initAllocs = append(initAllocs, float64(m1.Mallocs-m0.Mallocs))

		before := s.ReuseStats()
		e := s.Enumerate()
		var results []*core.Result
		for len(results) < layerResults {
			r, ok := e.Next()
			if !ok {
				break
			}
			results = append(results, r)
		}
		after := s.ReuseStats()
		if len(results) > 0 {
			solvesPer = append(solvesPer, float64(after.ConstrainedSolves-before.ConstrainedSolves)/float64(len(results)))
		}
		reused += after.ReusedBlocks - before.ReusedBlocks
		dirty += after.DirtyBlocks - before.DirtyBlocks

		// One constrained MinTriang per include/exclude of a separator
		// taken from the emitted results.
		for _, r := range results {
			for _, sep := range limit(r.Seps, layerSolveSeps) {
				for _, cons := range []*cost.Constraints{{Include: []vset.Set{sep}}, {Exclude: []vset.Set{sep}}} {
					t := time.Now()
					_, err := s.MinTriang(cons)
					solveUs = append(solveUs, us(time.Since(t)))
					if err != nil && !errors.Is(err, core.ErrNoTriangulation) {
						rep.fail("layer pass: constrained solve: %v", err)
					}
				}
			}
		}

		// FillIn.BagSum over the solver's PMCs.
		empty := vset.New(g.Universe())
		ps := s.PMCs()
		var fill cost.FillIn
		sum := 0.0
		t6 := time.Now()
		for _, omega := range ps {
			sum += fill.BagSum(g, omega, empty)
		}
		if len(ps) > 0 {
			bagNs = append(bagNs, float64(time.Since(t6).Nanoseconds())/float64(len(ps)))
		}
		runtime.KeepAlive(sum)

		t7 := time.Now()
		d := atoms.Decompose(g)
		atomMs = append(atomMs, ms(time.Since(t7)))
		largest := 0
		for _, a := range d.Atoms {
			largest = max(largest, a.Vertices.Len())
		}
		atomN, atomMax = append(atomN, float64(len(d.Atoms))), append(atomMax, float64(largest))
	}
	rep.metrics["minsep.ms"] = pct(sepMs, 0.5)
	rep.metrics["minsep.count"] = pct(sepN, 0.5)
	rep.metrics["pmc.ms"] = pct(pmcMs, 0.5)
	rep.metrics["pmc.count"] = pct(pmcN, 0.5)
	rep.metrics["pmc.blocks_ms"] = pct(blkMs, 0.5)
	rep.metrics["pmc.blocks"] = pct(blkN, 0.5)
	rep.metrics["core.init_ms"] = pct(initMs, 0.5)
	rep.metrics["core.init_rest_ms"] = pct(restMs, 0.5)
	rep.metrics["core.init_allocs"] = pct(initAllocs, 0.5)
	rep.metrics["core.solve_us"] = pct(solveUs, 0.5)
	rep.metrics["core.solves_per_result"] = pct(solvesPer, 0.5)
	rep.metrics["core.reuse_ratio"] = exact(float64(reused)/float64(max(reused+dirty, 1)), int(reused+dirty))
	rep.metrics["cost.bagsum_ns"] = pct(bagNs, 0.5)
	rep.metrics["atoms.ms"] = pct(atomMs, 0.5)
	rep.metrics["atoms.count"] = pct(atomN, 0.5)
	rep.metrics["atoms.largest"] = pct(atomMax, 0.5)

	var canonUs []float64
	for _, g := range in.canon {
		t := time.Now()
		g.CanonicalForm()
		canonUs = append(canonUs, us(time.Since(t)))
	}
	rep.metrics["graph.canon_us"] = pct(canonUs, 0.5)

	var autUs, keyUs []float64
	var skippedBranches, reps, consumed uint64
	for _, x := range limit(in.orbit, layerMaxOrbit) {
		t := time.Now()
		x.g.Automorphisms()
		autUs = append(autUs, us(time.Since(t)))

		s, err := core.New(ctx, x.g, cost.FillIn{}, core.Options{})
		if err != nil {
			rep.fail("layer pass: orbit init: %v", err)
			continue
		}
		var counters core.OrbitCounters
		ob := core.NewOrbitBackend(s, &counters)
		t0 := time.Now()
		e := ob.EnumerateContext(ctx)
		emitted := uint64(0)
		for ; emitted < uint64(x.max); emitted++ {
			if _, ok := e.Next(); !ok {
				break
			}
		}
		tOrbit := time.Since(t0)
		st := counters.Snapshot()
		// The plain results the orbit drain walked through: representatives
		// plus skipped duplicates, or just the emitted results when a
		// trivial group made the orbit backend a passthrough.
		n := max(st.Representatives+st.SkippedResults, emitted)
		t1 := time.Now()
		pe := s.Enumerate()
		for i := uint64(0); i < n; i++ {
			if _, ok := pe.Next(); !ok {
				break
			}
		}
		tPlain := time.Since(t1)
		if n > 0 {
			keyUs = append(keyUs, us(tOrbit-tPlain)/float64(n))
		}
		skippedBranches += st.SkippedBranches
		reps += emitted
		consumed += n
	}
	rep.metrics["graph.aut_us"] = pct(autUs, 0.5)
	rep.metrics["orbit.key_us_per_result"] = pct(keyUs, 0.5)
	rep.metrics["orbit.skipped_branches"] = exact(float64(skippedBranches), len(autUs))
	rep.metrics["orbit.reduction"] = exact(float64(consumed)/float64(max(reps, 1)), int(reps))

	var ckkFirst, ckkDelay []float64
	for _, g := range limit(in.mis, layerMaxMIS) {
		t0 := time.Now()
		e := ckk.New(g, nil)
		if _, ok := e.Next(); !ok {
			continue
		}
		t1 := time.Now()
		n := 0
		for n < ckkResults-1 {
			if _, ok := e.Next(); !ok {
				break
			}
			n++
		}
		ckkFirst = append(ckkFirst, ms(t1.Sub(t0)))
		if n > 0 {
			ckkDelay = append(ckkDelay, us(time.Since(t1))/float64(n))
		}
	}
	rep.metrics["ckk.first_ms"] = pct(ckkFirst, 0.5)
	rep.metrics["ckk.delay_us"] = pct(ckkDelay, 0.5)
}

func limit[T any](xs []T, n int) []T {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// serveLayerInputs picks the layer-pass inputs from a serve run's ops: one
// input per template (or per op on fresh graphs) for the solve layers,
// every op's graph for canonical labeling.
func serveLayerInputs(ops []*op) layerInputs {
	var in layerInputs
	seen := map[int]bool{}
	for _, o := range ops {
		in.canon = append(in.canon, o.g)
		switch o.kind {
		case "session", "ndjson":
			if o.tmpl < 0 || !seen[o.tmpl] {
				seen[o.tmpl] = true
				in.solve = append(in.solve, rankInput{entry: -1, g: o.g, c: costByName(o.cost)})
			}
		case "orbit":
			in.orbit = append(in.orbit, orbitInput{o.g, o.maxResults})
		case "mis":
			in.mis = append(in.mis, o.g)
		}
	}
	return in
}

// probeService gives rank-sepdense, which makes no HTTP calls, its
// service.* metrics: every endpoint once per input, on a fresh daemon.
func probeService(rep *report, inputs []rankInput, seed int64) error {
	srv, err := startServer(runtime.NumCPU())
	if err != nil {
		return err
	}
	defer srv.stop()
	rng := rand.New(rand.NewSource(seed))
	var ops []*op
	for _, x := range inputs {
		c := x.c.Name()
		ops = append(ops,
			newOp("session", x.g, c, -1, 0),
			newOp("ndjson", x.g, c, -1, 40),
			batchOp(rng, x.g, c, -1),
			cspOp(x.g, -1),
			newOp("orbit", x.g, c, -1, 10),
			newOp("diverse", x.g, c, -1, 0),
			newOp("mis", x.g, c, -1, 50))
	}
	before, err := srv.stats()
	if err != nil {
		return err
	}
	tr := newTracer()
	runSequential(srv, ops, tr)
	after, err := srv.stats()
	if err != nil {
		return err
	}
	checkServe(rep, ops)
	serviceCounters(rep, before, after, ops)
	endpointMetrics(rep, tr)
	return nil
}
