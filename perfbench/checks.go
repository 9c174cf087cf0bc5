package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/csp"
	"repro/internal/graph"
)

// libraryPrefix returns the first k costs of the library's ranked
// enumeration of g (fewer when g has fewer minimal triangulations).
// Relabelings of one template share an entry of cache.
func libraryPrefix(cache map[string][]float64, o *op, k int) []float64 {
	key := ""
	if o.tmpl >= 0 {
		key = fmt.Sprintf("%d/%s/%d", o.tmpl, o.cost, k)
		if c, ok := cache[key]; ok {
			return c
		}
	}
	s, err := core.New(context.Background(), o.g, costByName(o.cost), core.Options{})
	if err != nil {
		return nil
	}
	var costs []float64
	for _, r := range s.TopKContext(context.Background(), k, 1) {
		costs = append(costs, r.Cost)
	}
	if key != "" {
		cache[key] = costs
	}
	return costs
}

// plainLength reports whether the unreduced stream of g has at least n
// results.
func plainLength(g *graph.Graph, costName string, n int64) bool {
	s, err := core.New(context.Background(), g, costByName(costName), core.Options{})
	if err != nil {
		return false
	}
	e := s.Enumerate()
	for i := int64(0); i < n; i++ {
		if _, ok := e.Next(); !ok {
			return false
		}
	}
	return true
}

// colourings counts the proper 3-colourings of g with the internal/csp
// dynamic program over a minimal triangulation's clique tree.
func colourings(g *graph.Graph) (int64, error) {
	doms := make([]int, g.Universe())
	for v := range doms {
		doms[v] = 3
	}
	p := csp.NewProblem(doms)
	for _, e := range g.Edges() {
		p.AllowFunc(e[0], e[1], func(a, b int) bool { return a != b })
	}
	s := core.NewSolver(g, cost.Width{})
	r, err := s.MinTriang(nil)
	if err != nil {
		return 0, err
	}
	return p.Count(r.Tree)
}

func equalCosts(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkServe verifies every op's output against the library, outside the
// timed phase, and counts the ops in the report.
func checkServe(rep *report, ops []*op) {
	cache := map[string][]float64{}
	counts := map[int]int64{}
	for i, o := range ops {
		rep.attempted++
		r := &o.rec
		where := fmt.Sprintf("op %d (%s)", i, o.kind)
		if !r.ok {
			rep.fail("%s: %s", where, r.err)
			continue
		}
		if msg := checkOp(o, cache, counts); msg != "" {
			rep.fail("%s: %s", where, msg)
		}
	}
}

func checkOp(o *op, cache map[string][]float64, counts map[int]int64) string {
	r := &o.rec
	contiguous := func() string {
		for i, idx := range r.indices {
			if idx != i {
				return fmt.Sprintf("result %d has index %d", i, idx)
			}
		}
		return ""
	}
	ranked := func() string {
		for i := 1; i < len(r.costs); i++ {
			if r.costs[i] < r.costs[i-1] {
				return fmt.Sprintf("cost decreases at index %d", i)
			}
		}
		return ""
	}
	firstPage := func(costs []float64) string {
		want := libraryPrefix(cache, o, pageSize)
		got := costs
		if len(got) > len(want) {
			got = got[:len(want)]
		}
		if !equalCosts(got, want) {
			return fmt.Sprintf("first-page costs %v, library %v", got, want)
		}
		return ""
	}
	streamed := func() string {
		if r.summary != r.results {
			return fmt.Sprintf("summary count %d for %d result lines", r.summary, r.results)
		}
		if r.results == 0 || r.results > o.maxResults {
			return fmt.Sprintf("%d results for max_results %d", r.results, o.maxResults)
		}
		return ""
	}
	distinct := func() string {
		seen := map[string]bool{}
		for _, k := range r.keys {
			if seen[k] {
				return "repeated result"
			}
			seen[k] = true
		}
		return ""
	}
	switch o.kind {
	case "session":
		if r.results == 0 {
			return "no results"
		}
		return first(contiguous(), ranked(), firstPage(r.costs))
	case "ndjson":
		if msg := first(streamed(), contiguous(), ranked()); msg != "" {
			return msg
		}
		want := libraryPrefix(cache, o, o.maxResults)
		if !equalCosts(r.costs, want) {
			return fmt.Sprintf("streamed costs differ from the library's ranked prefix (%d vs %d results)", len(r.costs), len(want))
		}
	case "orbit":
		if msg := first(streamed(), contiguous(), ranked()); msg != "" {
			return msg
		}
		var sum int64
		for _, s := range r.orbitSizes {
			if s < 1 {
				return "orbit_size below 1"
			}
			sum += s
		}
		if !plainLength(o.g, o.cost, sum) {
			return fmt.Sprintf("orbit sizes sum to %d, beyond the plain stream length", sum)
		}
	case "mis":
		return first(streamed(), distinct())
	case "batch":
		if len(r.pages) != batchSize {
			return fmt.Sprintf("%d batch items, want %d", len(r.pages), batchSize)
		}
		for _, p := range r.pages {
			if msg := firstPage(p); msg != "" {
				return "batch item: " + msg
			}
		}
	case "csp":
		if !r.hasCSP || r.results == 0 {
			return "no csp block or no results"
		}
		want, ok := counts[o.tmpl]
		if !ok || o.tmpl < 0 {
			n, err := colourings(o.g)
			if err != nil {
				return "reference count: " + err.Error()
			}
			want = n
			counts[o.tmpl] = n
		}
		if r.cspCount != want || r.cspSat != (want > 0) {
			return fmt.Sprintf("csp count %d (satisfiable %v), internal/csp DP counts %d", r.cspCount, r.cspSat, want)
		}
		return ranked()
	case "diverse":
		want := libraryPrefix(cache, o, diverseK)
		if r.results == 0 || len(want) == 0 {
			return "empty diverse portfolio"
		}
		if r.results != len(want) || r.indices[0] != 0 || r.costs[0] != want[0] {
			return fmt.Sprintf("diverse portfolio of %d led by index %d, want %d led by the optimum", r.results, r.indices[0], len(want))
		}
		return distinct()
	}
	return ""
}

// first returns the first non-empty message.
func first(msgs ...string) string {
	for _, m := range msgs {
		if m != "" {
			return m
		}
	}
	return ""
}
