package main

import (
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
)

// template is one fixed serve-shared input; ops send random relabelings.
type template struct {
	name string
	g    *graph.Graph
}

// sharedTemplates are built from fixed seeds: the working set is the same
// on every run, only the relabelings and the op order depend on --seed.
func sharedTemplates() []template {
	src := func(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) }
	return []template{
		{"C9", gen.Cycle(9)},
		{"grid3x3", gen.Grid(3, 3)},
		{"grid4x4", gen.Grid(4, 4)},
		{"cliquechain6x10", gen.CliqueChain(src(1), 6, 10, 3, 0.4)},
		{"tree40c3", gen.TreePlusChords(src(43), 40, 3)},
		{"dag18", gen.MoralizedDAG(src(5), 18, 2)},
		{"gnp16", gen.ConnectedGNP(src(7), 16, 0.3)},
	}
}

// Op mixes, as one cycle of 20 slots: S session (enumerate + 2 × next),
// N NDJSON stream, B batch, C csp, O orbit stream, D diverse, M mis stream.
const (
	sharedCycle = "SNSBSNSCSOSNSBSDSNSC" // 10 S, 4 N, 2 B, 2 C, 1 O, 1 D
	coldCycle   = "SNSSOSNSMSSNSSOSNSMS" // 12 S, 4 N, 2 O, 2 M
)

var kindOf = map[byte]string{'S': "session", 'N': "ndjson", 'B': "batch", 'C': "csp", 'O': "orbit", 'D': "diverse", 'M': "mis"}

func costFor(round int) string {
	if round%2 == 0 {
		return "fill"
	}
	return "width"
}

// opSpec is an op before the seed's relabeling: its kind, its graph in
// the corpus labeling, and the parameters the checks need.
type opSpec struct {
	kind       string
	g          *graph.Graph
	cost       string
	tmpl       int // template index, or -1 for a one-off graph
	maxResults int
}

// materialize relabels the spec's graph with rng and builds the request.
func materialize(rng *rand.Rand, s opSpec) *op {
	g := gen.Relabel(rng, s.g)
	switch s.kind {
	case "batch":
		return batchOp(rng, g, s.cost, s.tmpl)
	case "csp":
		return cspOp(g, s.tmpl)
	}
	return newOp(s.kind, g, s.cost, s.tmpl, s.maxResults)
}

// cycleOps lays n ops out along the mix cycle. The problems and their
// order come from the fixed corpus seed, so every run sends the same
// schedule of the same problems; the workload seed relabels every graph.
// (Drawing the problems or their order from the workload seed made the
// latency percentiles depend on which heavy ops happened to collide, more
// than any program change the benchmark is meant to see.) draw gets the
// number of earlier ops of the same kind, to rotate templates and costs.
func cycleOps(seed, corpus int64, n int, cycle string, draw func(base *rand.Rand, kind string, seen int) opSpec) []*op {
	base := rand.New(rand.NewSource(corpus))
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]int{}
	ops := make([]*op, n)
	for i := range ops {
		kind := kindOf[cycle[i%len(cycle)]]
		ops[i] = materialize(rng, draw(base, kind, seen[kind]))
		seen[kind]++
	}
	return ops
}

// probeOps builds count ops of each kind, for the endpoints a mix lacks.
func probeOps(seed, corpus int64, kinds []string, count int, draw func(base *rand.Rand, kind string, seen int) opSpec) []*op {
	base := rand.New(rand.NewSource(corpus))
	rng := rand.New(rand.NewSource(seed))
	var ops []*op
	for i := 0; i < count; i++ {
		for _, k := range kinds {
			ops = append(ops, materialize(rng, draw(base, k, i)))
		}
	}
	return ops
}

// serve-shared: daemon traffic whose requests share work. Every op is a
// random relabeling of a fixed template, so after the first touch of each
// (template, cost) the hot path is canonical keying, pool and stream hits,
// buffer reads and JSON egress.
func sharedSpec(ref *reference) serveSpec {
	tmpls := sharedTemplates()
	all := make([]int, len(tmpls))
	for i := range all {
		all[i] = i
	}
	orbitT := []int{0, 1}     // C9, grid3x3
	cspT := []int{0, 1, 2, 6} // C9, grid3x3, grid4x4, gnp16
	draw := func(_ *rand.Rand, kind string, seen int) opSpec {
		pool, max := all, 100
		switch kind {
		case "orbit":
			pool, max = orbitT, 20
		case "csp":
			pool = cspT
		case "mis":
			max = 50
		}
		t := pool[seen%len(pool)]
		return opSpec{kind: kind, g: tmpls[t].g, cost: costFor(seen / len(pool)), tmpl: t, maxResults: max}
	}
	p := ref.Serve["serve-shared"]
	return serveSpec{
		name:   "serve-shared",
		params: p,
		ops:    func(seed int64, n int) []*op { return cycleOps(seed, p.CorpusSeed, n, sharedCycle, draw) },
		probe: func(seed int64) []*op {
			return probeOps(seed, p.CorpusSeed, []string{"mis"}, 2*len(tmpls), draw)
		},
	}
}

// serve-cold: the same endpoints with every op on a graph of its own. More
// distinct graphs arrive per run than the solver pool holds, so the pool
// and the stream store miss, insert and evict, and init, atoms, orbit
// keying, CKK and speculative prefetch run on the request path.
func coldSpec(ref *reference) serveSpec {
	fresh := func(rng *rand.Rand, seen int) *graph.Graph {
		switch seen % 6 {
		case 0, 1, 2:
			return gen.ConnectedGNP(rng, 14+rng.Intn(5), 0.25+0.05*float64(rng.Intn(3)))
		case 3:
			return gen.CliqueChain(rng, 3, 8, 2, 0.5)
		case 4:
			return gen.TreePlusChords(rng, 30, 5)
		default:
			return gen.ConnectedGNP(rng, 16, 0.3)
		}
	}
	symmetric := func(rng *rand.Rand, seen int) *graph.Graph {
		if seen%2 == 0 {
			n := 9 + rng.Intn(4)
			return gen.CirculantGraph(n, []int{1, 2 + rng.Intn(n/2-1)})
		}
		t := gen.ConnectedGNP(rng, 7, 0.45)
		copies := gen.IsoCopies(rng, t, 2)
		return disjointUnion(copies[0], copies[1])
	}
	draw := func(rng *rand.Rand, kind string, seen int) opSpec {
		s := opSpec{kind: kind, cost: costFor(seen), tmpl: -1}
		switch kind {
		case "orbit":
			s.g, s.maxResults = symmetric(rng, seen), 10
		case "mis":
			s.g, s.maxResults = gen.ConnectedGNP(rng, 22+rng.Intn(5), 0.35), 50
		case "ndjson":
			s.g, s.maxResults = fresh(rng, seen), 50
		default:
			s.g = fresh(rng, seen)
		}
		return s
	}
	p := ref.Serve["serve-cold"]
	return serveSpec{
		name:   "serve-cold",
		params: p,
		ops:    func(seed int64, n int) []*op { return cycleOps(seed, p.CorpusSeed, n, coldCycle, draw) },
		probe: func(seed int64) []*op {
			return probeOps(seed, p.CorpusSeed+1, []string{"batch", "csp", "diverse"}, 4, draw)
		},
	}
}

// disjointUnion places h's vertices after g's.
func disjointUnion(g, h *graph.Graph) *graph.Graph {
	n := g.Universe()
	u := graph.New(n + h.Universe())
	for _, e := range g.Edges() {
		u.AddEdge(e[0], e[1])
	}
	for _, e := range h.Edges() {
		u.AddEdge(n+e[0], n+e[1])
	}
	return u
}
