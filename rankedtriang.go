// Package rankedtriang is a Go implementation of "Ranked Enumeration of
// Minimal Triangulations" (Ravid, Medini, Kimelfeld; PODS 2019): it
// enumerates the minimal triangulations of a graph — equivalently, its
// proper tree decompositions — by increasing cost, with polynomial delay
// for polynomial-time split-monotone bag costs on graphs with polynomially
// many minimal separators (and, via a width bound, on arbitrary graphs).
//
// # Quick start
//
//	g := rankedtriang.NewGraph(4)
//	g.AddEdge(0, 1)
//	g.AddEdge(1, 2)
//	g.AddEdge(2, 3)
//	g.AddEdge(3, 0)
//	solver := rankedtriang.NewSolver(g, rankedtriang.Width())
//	enum := solver.Enumerate()
//	for r, ok := enum.Next(); ok; r, ok = enum.Next() {
//		fmt.Println(r.Tree, r.Cost)
//	}
//
// The package re-exports the building blocks as type aliases, so the full
// machinery (graphs, vertex sets, tree decompositions, cost functions,
// hypergraphs, the CKK baseline) is reachable from this single import.
package rankedtriang

import (
	"context"
	"io"

	"repro/internal/atoms"
	"repro/internal/ckk"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/csp"
	"repro/internal/graph"
	"repro/internal/heur"
	"repro/internal/hyper"
	"repro/internal/jt"
	"repro/internal/service"
	"repro/internal/td"
	"repro/internal/triang"
	"repro/internal/vset"
)

// Graph is an undirected graph over a fixed vertex universe.
type Graph = graph.Graph

// VertexSet is a set of vertices of a Graph.
type VertexSet = vset.Set

// Decomposition is a tree decomposition (a tree of bags).
type Decomposition = td.Decomposition

// Cost is a split-monotone bag cost κ(G, T) (Section 3 of the paper).
type Cost = cost.Cost

// Constraints is an inclusion/exclusion constraint pair [I, X] over
// minimal separators (Section 6.1).
type Constraints = cost.Constraints

// Solver is the initialized triangulation engine: it owns the minimal
// separators, potential maximal cliques and block structure of a graph and
// answers optimization and enumeration queries over them.
type Solver = core.Solver

// Enumerator streams minimal triangulations by increasing cost
// (RankedTriang, Figure 4 of the paper).
type Enumerator = core.Enumerator

// TDEnumerator streams proper tree decompositions by increasing cost
// (Proposition 6.1).
type TDEnumerator = core.TDEnumerator

// Result is one minimal triangulation: the chordal supergraph H, a clique
// tree of it, its bags, minimal separators, and cost.
type Result = core.Result

// Hypergraph is a hypergraph with a primal graph and edge-cover based
// costs (hypertree width, fractional hypertree width).
type Hypergraph = hyper.Hypergraph

// ErrNoTriangulation is returned when no minimal triangulation satisfies
// the given width bound or constraints.
var ErrNoTriangulation = core.ErrNoTriangulation

// NewGraph returns a graph over the vertex universe {0..n-1} with no edges.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewVertexSet returns the set of the given vertices over universe n.
func NewVertexSet(n int, vertices ...int) VertexSet { return vset.Of(n, vertices...) }

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line).
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadDIMACS parses a DIMACS graph-coloring file ("p edge", "e u v").
func ReadDIMACS(r io.Reader) (*Graph, error) { return graph.ReadDIMACS(r) }

// ReadPACE parses a PACE treewidth ".gr" file.
func ReadPACE(r io.Reader) (*Graph, error) { return graph.ReadPACE(r) }

// ReadGraph6 parses graphs in nauty's graph6 format (one per line).
func ReadGraph6(r io.Reader) ([]*Graph, error) { return graph.ReadGraph6(r) }

// NewHypergraph returns a hypergraph over n vertices.
func NewHypergraph(n int) *Hypergraph { return hyper.New(n) }

// Width is the classic width cost: maximum bag size minus one.
func Width() Cost { return cost.Width{} }

// FillIn is the classic fill-in cost: the number of added edges.
func FillIn() Cost { return cost.FillIn{} }

// WidthThenFill orders by width first and breaks ties by fill-in.
func WidthThenFill() Cost { return cost.LexWidthFill{} }

// StateSpace is the total junction-tree table size: the sum over bags of
// the product of member domain sizes (2 when domains is nil) — the
// paper's "sum over exponents of bag cardinalities" cost.
func StateSpace(domains []int) Cost { return cost.TotalStateSpace{Domain: domains} }

// BagWeightCost builds a Furuse–Yamazaki width_c cost from a bag scoring
// function, which must be monotone under bag inclusion.
func BagWeightCost(name string, weight func(g *Graph, bag VertexSet) float64) Cost {
	return cost.WeightedWidth{CostName: name, BagWeight: weight}
}

// EdgeWeightCost builds a Furuse–Yamazaki fill_c cost from a fill-edge
// pricing function.
func EdgeWeightCost(name string, weight func(u, v int) float64) Cost {
	return cost.WeightedFill{CostName: name, EdgeWeight: weight}
}

// NewSolver initializes the solver for g under the given cost: it
// computes the minimal separators, potential maximal cliques and full
// blocks once; all queries share them.
//
// When the graph splits into several clique-separator atoms and the cost
// folds across them (all pure max- and sum-type built-ins do), the solver
// automatically routes through the atom decomposition: one sub-solver per
// atom, initialized lazily and in parallel, with the per-atom ranked
// streams merged into one globally cost-ordered stream. Initialization
// and delay then depend on the largest atom instead of the whole graph.
// Use SolverOptions.NoDecompose to force the monolithic solver.
func NewSolver(g *Graph, c Cost) *Solver { return core.NewSolver(g, c) }

// SolverOptions configures NewSolverWithOptions: an optional width bound
// and the NoDecompose ablation knob that forces the monolithic
// whole-graph solver.
type SolverOptions = core.Options

// NewSolverWithOptions is the fully configurable solver constructor.
func NewSolverWithOptions(ctx context.Context, g *Graph, c Cost, opts SolverOptions) (*Solver, error) {
	return core.New(ctx, g, c, opts)
}

// AtomDecomposition is the clique-minimal-separator decomposition of a
// graph: its atoms (maximal connected subgraphs without a clique
// separator) and the clique minimal separators between them.
type AtomDecomposition = atoms.Decomposition

// DecomposeAtoms computes the atom decomposition of g (Tarjan; Berry–
// Bordat). Minimal triangulations factor across it: every minimal
// triangulation of g is the union of independent minimal triangulations
// of the atoms, which is what lets the solver enumerate per atom and
// merge ranked streams.
func DecomposeAtoms(g *Graph) *AtomDecomposition { return atoms.Decompose(g) }

// NewSolverContext is NewSolver with cancellation: initialization aborts
// with ctx's error when ctx is cancelled or times out. Long-lived callers
// (the service layer, batch pipelines) use it so abandoned work stops
// burning CPU.
func NewSolverContext(ctx context.Context, g *Graph, c Cost) (*Solver, error) {
	return core.NewSolverContext(ctx, g, c)
}

// NewBoundedSolver initializes a solver restricted to triangulations of
// width at most b (Theorem 4.5 — no poly-MS assumption needed for the
// guarantee).
func NewBoundedSolver(g *Graph, c Cost, b int) *Solver { return core.NewBoundedSolver(g, c, b) }

// MinimumTriangulation is a one-shot convenience: it computes a
// minimum-cost minimal triangulation of g under c.
func MinimumTriangulation(g *Graph, c Cost) (*Result, error) {
	return core.NewSolver(g, c).MinTriang(nil)
}

// TopK returns up to k minimal triangulations of g by increasing cost.
func TopK(g *Graph, c Cost, k int) []*Result {
	return core.NewSolver(g, c).TopK(k)
}

// TopKContext is TopK with cancellation and parallel Lawler–Murty branch
// solving: it stops early (possibly short of k results) once ctx is
// cancelled, and solves branch optimizations with the given worker count
// (1 means sequential; zero or negative means GOMAXPROCS). The emitted
// prefix is identical to the sequential TopK.
func TopKContext(ctx context.Context, g *Graph, c Cost, k, workers int) ([]*Result, error) {
	s, err := core.NewSolverContext(ctx, g, c)
	if err != nil {
		return nil, err
	}
	return s.TopKContext(ctx, k, workers), nil
}

// CKKResult is one triangulation from the baseline enumeration.
type CKKResult = ckk.Result

// CKKEnumerator is the Carmeli–Kenig–Kimelfeld baseline: complete,
// incremental polynomial time, no order guarantee.
type CKKEnumerator = ckk.Enumerator

// NewCKK starts the baseline enumeration of all minimal triangulations of
// g (unordered). A nil triangulator selects LB-Triang, as in the paper's
// experiments.
func NewCKK(g *Graph) *CKKEnumerator { return ckk.New(g, nil) }

// Backend is a pluggable enumeration engine over one (graph, cost) pair:
// the ranked-exact DP solver and the CKK separator-graph MIS adapter both
// implement it, producing the same Result stream shape, so the serving
// tier (shared streams, sessions, NDJSON fan-out) is backend-agnostic.
type Backend = core.Backend

// BackendKind names an enumeration strategy ("dp", "mis", "auto").
type BackendKind = core.BackendKind

// Backend kinds (see core.BackendKind).
const (
	BackendAuto = core.BackendAuto
	BackendDP   = core.BackendDP
	BackendMIS  = core.BackendMIS
)

// MISBackendOptions tunes NewMISBackend (width bound post-filter).
type MISBackendOptions = core.MISOptions

// NewMISBackend returns the Carmeli–Kenig–Kimelfeld separator-graph MIS
// backend for (g, c): no initialization cost, incremental polynomial
// time, results unordered.
func NewMISBackend(g *Graph, c Cost, opts MISBackendOptions) Backend {
	return core.NewMISBackend(g, c, opts)
}

// SelectBackend resolves BackendAuto for a graph by probing its minimal
// separator count under a budget (<= 0 selects core.DefaultProbeBudget):
// the ranked DP below the budget, MIS above. An explicit kind wins.
func SelectBackend(ctx context.Context, g *Graph, kind BackendKind, probeBudget int) BackendKind {
	return core.SelectBackend(ctx, g, kind, probeBudget)
}

// FactorModel is a discrete factor model for junction-tree inference.
type FactorModel = jt.Model

// JunctionTree is a calibrated junction tree answering marginal and
// partition-function queries.
type JunctionTree = jt.JunctionTree

// NewFactorModel creates a factor model with the given per-variable
// cardinalities.
func NewFactorModel(card []int) *FactorModel { return jt.NewModel(card) }

// BuildJunctionTree assigns the model's factors to the decomposition's
// bags and calibrates with sum-product message passing. The decomposition
// typically comes from a Result produced under the StateSpace cost, which
// is exactly the tree's total table size.
func BuildJunctionTree(m *FactorModel, d *Decomposition) (*JunctionTree, error) {
	return jt.Build(m, d)
}

// CSP is a binary constraint-satisfaction problem solvable by dynamic
// programming over a tree decomposition of its constraint graph.
type CSP = csp.Problem

// NewCSP creates a CSP with the given per-variable domain sizes.
func NewCSP(domains []int) *CSP { return csp.NewProblem(domains) }

// FillDistance measures how structurally different two minimal
// triangulations of g are: the size of the symmetric difference of their
// fill sets (0 iff they are the same triangulation). Solver.DiverseTopK
// maximizes it pairwise when assembling a portfolio.
func FillDistance(g *Graph, a, b *Result) int { return core.FillDistance(g, a, b) }

// HeuristicWidth returns the width achieved by the classic min-fill
// greedy elimination heuristic — a fast upper bound to compare the exact
// machinery against.
func HeuristicWidth(g *Graph) int {
	return heur.Width(g, heur.Order(g, heur.MinFill))
}

// HeuristicTriangulation returns a minimal triangulation obtained by
// minimalizing (LB-Triang) the min-fill greedy elimination order — the
// standard fast two-step pipeline, with no optimality or enumeration
// guarantees.
func HeuristicTriangulation(g *Graph) *Graph {
	return triang.LBTriang(g, heur.Order(g, heur.MinFill))
}

// Service is the ranked-enumeration HTTP service: one cache holding, per
// graph, the initialized solver and the ranked streams materialized over
// it; a SessionManager of resumable cursors over those streams; and the
// HTTP/JSON API (see repro/internal/service's package doc).
// cmd/rankedtriangd is the daemon around it.
type Service = service.Server

// ServiceConfig tunes a Service (cache size, session limits, admission
// concurrency, idle eviction).
type ServiceConfig = service.Config

// SolverKey identifies one ranked stream in a Service's cache: canonical
// graph fingerprint, cost, width bound, backend and orbit mode.
type SolverKey = service.SolverKey

// SessionManager parks live enumeration streams behind opaque resume
// tokens with idle eviction.
type SessionManager = service.SessionManager

// NewService returns a ready-to-serve ranked-enumeration HTTP handler.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// Fingerprint returns the canonical hash of the labeled graph — the cache
// key the service layer uses to deduplicate solver initializations.
func Fingerprint(g *Graph) string { return g.Fingerprint() }
