// Package minsep enumerates the minimal separators of a graph with the
// Berry–Bordat–Cogis algorithm and provides the crossing/parallel relation
// of Parra–Scheffler that underpins the whole triangulation theory.
package minsep

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/vset"
)

// Stream produces MinSep(G) lazily with the Berry–Bordat–Cogis algorithm
// (WG 1999): seed with the neighborhoods of the components of G \ N[v]
// for every vertex v, then close under the expansion step S ↦ N(C) for
// components C of G \ (S ∪ N(x)), x ∈ S. Separators are emitted in
// discovery order, and a known separator is expanded only when every
// discovered one has been handed out, so a consumer that stops early pays
// only for the prefix it drew. The empty separator is emitted if and only
// if g is disconnected (it is the unique minimal (u,v)-separator for u, v
// in different components).
//
// The ranked DP drains a Stream through All; the CKK enumeration and the
// backend probe draw from one directly.
type Stream struct {
	g        *graph.Graph
	tab      *intern.Table // dedup set and discovery order in one
	produced int           // prefix of tab already handed out
	expanded int           // prefix of tab already expanded
}

// NewStream starts the separator generator for g. The neighborhood seeds
// are computed here; every expansion step is deferred to Next.
func NewStream(g *graph.Graph) *Stream {
	st := &Stream{g: g, tab: intern.New(g.NumVertices())}
	g.Vertices().ForEach(func(v int) bool {
		for _, c := range g.ComponentsAvoiding(g.ClosedNeighborhood(v)) {
			st.tab.Intern(g.NeighborsOfSet(c))
		}
		return true
	})
	return st
}

// Next returns one more minimal separator, or ok=false when the closure
// is exhausted or ctx is cancelled (distinguish via ctx.Err()). The
// context is checked before every expansion step.
func (st *Stream) Next(ctx context.Context) (vset.Set, bool) {
	for st.produced == st.tab.Len() && st.expanded < st.tab.Len() {
		if ctx.Err() != nil {
			return vset.Set{}, false
		}
		s := st.tab.Set(st.expanded)
		st.expanded++
		s.ForEach(func(x int) bool {
			avoid := s.Union(st.g.Neighbors(x))
			avoid.AddInPlace(x)
			for _, c := range st.g.ComponentsAvoiding(avoid) {
				st.tab.Intern(st.g.NeighborsOfSet(c))
			}
			return true
		})
	}
	if st.produced == st.tab.Len() {
		return vset.Set{}, false
	}
	st.produced++
	return st.tab.Set(st.produced - 1), true
}

// All returns MinSep(G), the minimal separators of g, in canonical order.
// If g is disconnected the empty separator is included.
func All(g *graph.Graph) []vset.Set {
	out, _ := AllCtx(context.Background(), g)
	return out
}

// AllCtx is All with cancellation: it returns ok=false (and the sorted
// list of the separators found so far) when ctx is cancelled or its
// deadline passes before the closure completes. Long-lived services use
// it to abandon initialization work for disconnected clients, and the
// tractability experiments (Figure 5/7) bound it with a deadline.
func AllCtx(ctx context.Context, g *graph.Graph) ([]vset.Set, bool) {
	st := NewStream(g)
	for {
		if _, ok := st.Next(ctx); !ok {
			break
		}
	}
	// The intern table holds every emitted separator, in emission order.
	out := append(make([]vset.Set, 0, st.tab.Len()), st.tab.Sets()...)
	slices.SortFunc(out, vset.Set.Compare)
	return out, st.expanded == st.tab.Len()
}

// AtMost returns the minimal separators of g of size at most k, by
// filtering All. This preserves the semantics MinTriangB needs; the
// fixed-parameter pruning the paper alludes to is a complexity-only
// optimization and is intentionally not replicated (see DESIGN.md).
func AtMost(g *graph.Graph, k int) []vset.Set {
	out, _ := AtMostCtx(context.Background(), g, k)
	return out
}

// AtMostCtx is AtMost with cancellation (see AllCtx).
func AtMostCtx(ctx context.Context, g *graph.Graph, k int) ([]vset.Set, bool) {
	seps, ok := AllCtx(ctx, g)
	if !ok {
		return nil, false
	}
	var out []vset.Set
	for _, s := range seps {
		if s.Len() <= k {
			out = append(out, s)
		}
	}
	return out, true
}

// Crosses reports whether s crosses t in g: some two vertices of t are
// separated by s, i.e. t meets at least two components of G \ s.
// The relation is symmetric (Parra–Scheffler). Separators are parallel
// when they do not cross.
func Crosses(g *graph.Graph, s, t vset.Set) bool {
	rest := t.Diff(s)
	if rest.IsEmpty() {
		return false
	}
	touched := 0
	for _, c := range g.ComponentsAvoiding(s) {
		if c.Intersects(rest) {
			touched++
			if touched >= 2 {
				return true
			}
		}
	}
	return false
}

// Parallel reports whether s and t are parallel (non-crossing) in g.
func Parallel(g *graph.Graph, s, t vset.Set) bool {
	return !Crosses(g, s, t)
}

// PairwiseParallel reports whether every two members of seps are parallel.
func PairwiseParallel(g *graph.Graph, seps []vset.Set) bool {
	for i := range seps {
		for j := i + 1; j < len(seps); j++ {
			if Crosses(g, seps[i], seps[j]) {
				return false
			}
		}
	}
	return true
}

// IsMaximalParallel reports whether seps is a maximal set of pairwise
// parallel minimal separators with respect to the universe all.
func IsMaximalParallel(g *graph.Graph, seps, all []vset.Set) bool {
	if !PairwiseParallel(g, seps) {
		return false
	}
	inSet := intern.FromSets(seps)
	for _, t := range all {
		if inSet.Contains(t) {
			continue
		}
		crossesSome := false
		for _, s := range seps {
			if Crosses(g, s, t) {
				crossesSome = true
				break
			}
		}
		if !crossesSome {
			return false
		}
	}
	return true
}

// Saturate returns g with every separator in seps saturated. When seps is
// a maximal set of pairwise-parallel minimal separators, the result is a
// minimal triangulation of g (Theorem 2.5, Parra–Scheffler).
func Saturate(g *graph.Graph, seps []vset.Set) *graph.Graph {
	h := g.Clone()
	for _, s := range seps {
		h.SaturateInPlace(s)
	}
	return h
}
