// Package pmc implements potential maximal cliques: the Bouchitté–Todinca
// membership test and their vertex-incremental enumeration of PMC(G)
// (Bouchitté & Todinca, "Listing all potential maximal cliques of a graph",
// TCS 2002). PMCs are exactly the bags of proper tree decompositions, i.e.
// the maximal cliques of minimal triangulations.
package pmc

import (
	"context"
	"errors"
	"sort"

	"repro/internal/graph"
	"repro/internal/intern"
	"repro/internal/minsep"
	"repro/internal/vset"
)

// IsPMC reports whether Ω is a potential maximal clique of g, using the
// Bouchitté–Todinca characterization: Ω is a PMC iff (a) G \ Ω has no full
// component (no component C with N(C) = Ω), and (b) every pair of
// non-adjacent vertices of Ω is "covered" by the neighborhood of some
// component of G \ Ω (so saturating those neighborhoods completes Ω).
func IsPMC(g *graph.Graph, omega vset.Set) bool {
	if omega.IsEmpty() || !omega.SubsetOf(g.Vertices()) {
		return false
	}
	comps := g.ComponentsAvoiding(omega)
	neighborhoods := make([]vset.Set, len(comps))
	for i, c := range comps {
		s := g.NeighborsOfSet(c)
		if s.Equal(omega) {
			return false // full component
		}
		neighborhoods[i] = s
	}
	// Every non-adjacent pair inside Ω must lie together in some N(C).
	vs := omega.Slice()
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			u, v := vs[i], vs[j]
			if g.HasEdge(u, v) {
				continue
			}
			covered := false
			for _, s := range neighborhoods {
				if s.Contains(u) && s.Contains(v) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
	}
	return true
}

// All enumerates PMC(G) with the vertex-incremental Bouchitté–Todinca
// algorithm: processing active vertices a1..an, the PMCs of
// G_{i+1} = G[{a1..a_{i+1}}] are found among
//
//	(1) the PMCs of G_i,
//	(2) those PMCs extended with a_{i+1},
//	(3) S ∪ {a_{i+1}} for minimal separators S of G_{i+1}, and
//	(4) S ∪ (T ∩ C) for minimal separators S of G_{i+1} not containing
//	    a_{i+1} that are not separators of G_i, minimal separators T of
//	    G_i, and components C of G_{i+1} \ S,
//
// each candidate filtered with IsPMC. The result is in canonical order.
//
// The running time is polynomial in |MinSep(G)| (the poly-MS assumption of
// the paper); completeness is property-tested against the brute-force
// oracle.
func All(g *graph.Graph) []vset.Set {
	out, _ := enumerate(context.Background(), g, -1)
	return out
}

// ErrDeadline reports that a deadline-bounded enumeration ran out of time.
var ErrDeadline = errors.New("pmc: deadline exceeded")

// AllCtx is All with cancellation: it returns ErrDeadline when ctx is
// cancelled or times out before the enumeration completes. Long-lived
// services use it to abandon initialization for disconnected clients,
// and the Figure 5 tractability runs bound it with a deadline.
func AllCtx(ctx context.Context, g *graph.Graph) ([]vset.Set, error) {
	out, ok := enumerate(ctx, g, -1)
	if !ok {
		return nil, ErrDeadline
	}
	return out, nil
}

// AtMost enumerates the PMCs of g of size at most k (the bags allowed by
// MinTriangB for width bound k-1). Candidates above the size bound are
// pruned during enumeration, but the separator lists are still complete
// (see minsep.AtMost for the discussion).
func AtMost(g *graph.Graph, k int) []vset.Set {
	out, _ := enumerate(context.Background(), g, k)
	return out
}

// AtMostCtx is AtMost with cancellation (see AllCtx).
func AtMostCtx(ctx context.Context, g *graph.Graph, k int) ([]vset.Set, error) {
	out, ok := enumerate(ctx, g, k)
	if !ok {
		return nil, ErrDeadline
	}
	return out, nil
}

func enumerate(ctx context.Context, g *graph.Graph, maxSize int) ([]vset.Set, bool) {
	verts := g.Vertices().Slice()
	n := g.Universe()
	current := intern.New(0)
	var prevSeps []vset.Set
	prevSepTab := intern.New(0)
	prefix := vset.New(n)
	for i, a := range verts {
		if ctx.Err() != nil {
			return nil, false
		}
		prefix.AddInPlace(a)
		gi := g.InducedSubgraph(prefix)
		// Candidate dedup and the seen-separator test run once per
		// candidate; interned IDs keep both a single hash away.
		next := intern.New(current.Len())
		consider := func(omega vset.Set) {
			if maxSize >= 0 && omega.Len() > maxSize {
				return
			}
			if next.Contains(omega) || !IsPMC(gi, omega) {
				return
			}
			next.Intern(omega)
		}
		if i == 0 {
			consider(vset.Of(n, a))
			current = next
			prevSeps, _ = minsep.AllCtx(ctx, gi)
			prevSepTab = intern.FromSets(prevSeps)
			continue
		}
		seps, sepsOK := minsep.AllCtx(ctx, gi)
		if !sepsOK {
			return nil, false
		}
		for _, omega := range current.Sets() {
			consider(omega)
			consider(omega.Add(a))
		}
		for _, s := range seps {
			if !s.Contains(a) {
				consider(s.Add(a))
				if !prevSepTab.Contains(s) {
					// Case (4): new separators combine with old ones.
					for _, c := range gi.ComponentsAvoiding(s) {
						for _, t := range prevSeps {
							if t.Intersects(c) {
								consider(s.Union(t.Intersect(c)))
							}
						}
					}
				}
			}
		}
		current = next
		prevSeps = seps
		prevSepTab = intern.FromSets(seps)
	}
	out := append([]vset.Set(nil), current.Sets()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, true
}

// Associated returns the minimal separators MinSep_G(Ω) and blocks
// Blck_G(Ω) associated with the PMC Ω in g: for each component C of
// G \ Ω, the pair (N(C), C). Each N(C) is a minimal separator of g and
// (N(C), C) is a full block (Section 5.1 of the paper).
func Associated(g *graph.Graph, omega vset.Set) (seps []vset.Set, blocks []Block) {
	seen := intern.New(4)
	for _, c := range g.ComponentsAvoiding(omega) {
		s := g.NeighborsOfSet(c)
		blocks = append(blocks, Block{S: s, C: c})
		if _, fresh := seen.Intern(s); fresh {
			seps = append(seps, s)
		}
	}
	return seps, blocks
}

// Block is a block (S, C) of a graph: a minimal separator S together with
// an S-component C. The block is identified with the vertex set S ∪ C.
type Block struct {
	S vset.Set
	C vset.Set
}

// Vertices returns S ∪ C.
func (b Block) Vertices() vset.Set { return b.S.Union(b.C) }

// Key returns a canonical map key for the block.
func (b Block) Key() string { return b.S.Key() + "|" + b.C.Key() }

// IsFull reports whether the block is full in g: every vertex of S has a
// neighbor in C.
func (b Block) IsFull(g *graph.Graph) bool {
	return g.NeighborsOfSet(b.C).Equal(b.S)
}

// Realization returns R(S, C) = G[S ∪ C] ∪ K_S.
func (b Block) Realization(g *graph.Graph) *graph.Graph {
	return g.Realization(b.S, b.C)
}

// FullBlocks returns every full block (S, C) of g over the given minimal
// separators, sorted by increasing |S ∪ C| — the processing order of the
// MinTriang dynamic program (Figure 3, line 3).
func FullBlocks(g *graph.Graph, seps []vset.Set) []Block {
	var out []Block
	for _, s := range seps {
		for _, c := range g.ComponentsAvoiding(s) {
			b := Block{S: s, C: c}
			if b.IsFull(g) {
				out = append(out, b)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		si := out[i].S.Len() + out[i].C.Len()
		sj := out[j].S.Len() + out[j].C.Len()
		if si != sj {
			return si < sj
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}
