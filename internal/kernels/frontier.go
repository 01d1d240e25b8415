package kernels

// This file defines the advance/filter operator layer: every traversal is a
// FrontierKernel, which plans each level itself — choosing a direction where
// it has one and rebuilding the level's page set from attribute state, so
// page kernels mark no pages. The plan fuses the advance (which pages must
// stream) with the filter (which vertices are live): Gunrock's fused
// advance+filter over the frontier as the algorithm's own vector, as
// GraphBLAST keeps it. Most plans go page by page: pagesAtLevel over a level
// vector (BFS, its ball, BC), pagesInSet over a bit set (SSSP), and a
// direction-optimizing BFS's one pass that prices its frontier and plans
// both directions. SSSP plans no distance buckets: delta-stepping streamed
// the same pages over 1.8× the levels (EXPERIMENTS.md, "sssp").
//
// The level-vector traversals' push levels discover through one entry
// loop, Discover (BFS, its ball, a direction-optimizing BFS's push levels
// and the incremental BFS), as CC and the incremental CC relax through one,
// RelaxMin; MultiBFS's pass is the one discovery loop of its own.
//
// Kernels that read in-neighbors (a direction-optimizing BFS's pull levels,
// IncCC's rescans) do not own a reverse index: they fetch the graph's
// (Graph.Reverse) when they first need it and hold it for the run, so every
// run on one graph epoch shares one index while any of them holds it. The
// out-degree table a direction-optimizing BFS prices with is the graph's too
// (Graph.OutDegrees).

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// Direction labels how a superstep traverses edges.
type Direction int8

// Directions. DirNone marks a level of a kernel without direction
// optimization, or a plan that found no work.
const (
	DirNone Direction = iota
	// DirPush is the sparse direction: frontier vertices scan their
	// out-edges and write discoveries forward.
	DirPush
	// DirPull is the dense direction: undiscovered vertices scan their
	// in-edges, stopping at the first frontier parent.
	DirPull
)

// String names the direction as the trace exporters spell it.
func (d Direction) String() string {
	switch d {
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	default:
		return "none"
	}
}

// DirMode forces or frees the per-level direction choice. The forced modes
// exist for tests and the fuzz harness; production runs use DirAuto.
type DirMode int

// Direction modes.
const (
	// DirAuto switches per level on frontier-edge density (Beamer's
	// heuristic as Ligra implements it: dense when the frontier's summed
	// out-degree exceeds |E|/20).
	DirAuto DirMode = iota
	// DirForcePush always advances frontier out-edges.
	DirForcePush
	// DirForcePull always scans unvisited in-edges.
	DirForcePull
)

// FrontierKernel is a traversal: a kernel that plans its own levels. The
// engine calls PlanLevel for level 0 once the WA is up and again after every
// superstep's merge, and an empty plan ends the forward phase; a kernel with
// pending work of its own (IncBFS's level buckets) can plan a level no page
// kernel discovered anything for. A BackwardKernel's forward levels are
// planned again for its backward sweep, deepest first.
//
// PlanLevel must rebuild next from scratch (Reset, then mark), reading only
// the merged attribute state — replicas are identical again when it runs —
// and return the direction the coming level will execute in: DirNone for a
// kernel without direction optimization or when no work remains. It runs
// single-threaded between supersteps, so it may mutate kernel-internal plan
// state (frontier flags, snapshots) that the page kernels then treat as
// read-only for the whole phase.
type FrontierKernel interface {
	Kernel
	PlanLevel(sts []State, level int32, next *bitset.Set) Direction
}

var _ = []FrontierKernel{(*BFS)(nil), (*SSSP)(nil), (*BC)(nil)}

// pagesAtLevel rebuilds next as the pages holding a vertex v with lv[v] ==
// level, page by page: a page joins at its first such vertex, with a large
// vertex's whole run as a push level needs, and the scan resumes past it.
func pagesAtLevel(g *slottedpage.Graph, lv []int16, level int16, next *bitset.Set) {
	next.Reset()
	for v := 0; v < len(lv); {
		i := slices.Index(lv[v:], level)
		if i < 0 {
			return
		}
		v = markPage(g, uint64(v+i), next)
	}
}

// pagesInSet is pagesAtLevel over a frontier kept as a bit set of vertices.
func pagesInSet(g *slottedpage.Graph, set *bitset.Set, next *bitset.Set) {
	next.Reset()
	for v := set.NextSet(0, set.Len()); v < set.Len(); v = set.NextSet(v, set.Len()) {
		v = markPage(g, uint64(v), next)
	}
}

// markPage marks frontier vertex v's pages and returns the first vertex
// past its home page.
func markPage(g *slottedpage.Graph, v uint64, next *bitset.Set) int {
	MarkVertexPages(g, v, next, true)
	start, n := g.VertexRange(g.HomeOf(v).PID)
	return int(start + n)
}

// MarkVertexPages sets the pages that must stream for vertex v: its home
// page, plus — when expandLP is set and v is a large vertex — the whole LP
// run, since push kernels expand the full adjacency. Pull kernels pass
// false: they read v's record only to test it, never its page-resident
// out-edges, so one page per vertex suffices. The per-vertex plans
// (MultiBFS, the incremental kernels) mark with it.
func MarkVertexPages(g *slottedpage.Graph, v uint64, next *bitset.Set, expandLP bool) {
	home := g.HomeOf(v)
	next.Set(int(home.PID))
	if !expandLP || g.Kind(home.PID) != slottedpage.LargePage {
		return
	}
	for pid := home.PID + 1; int(pid) < g.NumPages() &&
		g.Kind(pid) == slottedpage.LargePage && g.RVT(pid).StartVID == v; pid++ {
		next.Set(int(pid))
	}
}
