package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/chordal"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The polynomial minimality test must agree with the exhaustive oracle on
// every triangulation the oracle lists, and reject non-minimal chordal
// supergraphs.
func TestIsMinimalTriangulationMatchesBruteforce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := []*graph.Graph{gen.Cycle(6), gen.Grid(2, 3), gen.PaperExample()}
	for i := 0; i < 20; i++ {
		graphs = append(graphs, gen.GNP(rng, 6, 0.4))
	}
	for _, g := range graphs {
		for _, h := range bruteforce.AllMinimalTriangulations(g) {
			if !isMinimalTriangulation(h, g) {
				t.Fatalf("minimal triangulation rejected: %v of %v", h, g)
			}
		}
		// The complete graph is chordal but minimal only if g has no
		// minimal triangulation other than itself.
		k := graph.New(g.Universe())
		for u := 0; u < g.Universe(); u++ {
			for v := u + 1; v < g.Universe(); v++ {
				k.AddEdge(u, v)
			}
		}
		if got, want := isMinimalTriangulation(k, g), bruteforce.IsMinimalTriangulation(k, g); got != want {
			t.Fatalf("complete supergraph of %v: got %v, oracle %v", g, got, want)
		}
		if !chordal.IsChordal(g) && isMinimalTriangulation(g, g) {
			t.Fatalf("non-chordal graph accepted as its own triangulation: %v", g)
		}
	}
}

// BENCHMARK.json and the metric tables here must name the same metrics
// with the same units, and every workload it gates must exist.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s, here %s/%s", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range b.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}

// Two connections drive the daemon at once, with tracing on: the op
// records and spans they write must not race, and every output must check.
func TestLoadPhaseTwoConnections(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	ops := sharedSpec(ref).ops(1, 40)
	tr := newTracer()
	ph := loadPhase(srv, ops, 400, 2, tr)
	rep := newReport()
	checkServe(rep, ph.ops)
	if rep.failed != 0 || rep.attempted != len(ops) {
		t.Fatalf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.wrong)
	}
	if got := len(tr.opSelfTimes()); got != len(ops) {
		t.Fatalf("%d op spans, want %d", got, len(ops))
	}
}
