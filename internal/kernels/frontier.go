package kernels

// This file defines the advance/filter operator layer: a FrontierKernel
// plans each traversal level itself — choosing a traversal direction and
// rebuilding the page frontier directly from attribute state — instead of
// having page kernels mark NextPIDs bit by bit. The plan step fuses the
// advance (which pages must stream) with the filter (which vertices are
// live) so no dense per-level bitset of candidate pages is materialized and
// then pruned: PlanLevel writes the exact page set in one pass over state.
//
// DirBFS (direction-optimizing BFS, push/pull switching on frontier-edge
// density) uses the contract here; incremental.IncBFS and incremental.IncCC
// use it to re-plan from retained state. SSSP does not plan its levels:
// delta-stepping buckets streamed the same pages over 1.8× the levels
// (EXPERIMENTS.md, "sssp").
//
// Kernels that read in-neighbors (DirBFS's pull levels, IncCC's rescans)
// do not own a reverse index: they fetch the graph's (Graph.Reverse) when
// they first need it and hold it for the run, so every run on one graph
// epoch shares one index while any of them holds it. DirBFS's out-degree
// table is the graph's too (Graph.OutDegrees).

import (
	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// Direction labels how a superstep traverses edges.
type Direction int8

// Directions. DirNone marks levels outside a direction-optimized run (plain
// kernels) or a plan that found no work.
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

// FrontierKernel is a kernel that plans its own levels. The engine calls
// PlanLevel after seeding and again after every superstep's merge, *before*
// testing the frontier for emptiness: the plan owns termination (an empty
// next set ends the run), which lets a kernel that keeps pending work of its
// own (IncBFS's per-level buckets) keep running even when no page kernel
// marked a next page.
//
// PlanLevel must rebuild next from scratch (Reset, then mark), reading only
// the merged attribute state — replicas are identical again when it runs —
// and return the direction the coming level will execute in, or DirNone
// when no work remains. It runs single-threaded between supersteps, so it
// may mutate kernel-internal plan state (frontier flags, snapshots) that
// the page kernels then treat as read-only for the whole phase.
type FrontierKernel interface {
	Kernel
	PlanLevel(sts []State, level int32, next *bitset.Set) Direction
}

var _ FrontierKernel = (*DirBFS)(nil)

// MarkVertexPages sets the pages that must stream for vertex v: its home
// page, plus — when expandLP is set and v is a large vertex — the whole LP
// run, since push kernels expand the full adjacency. Pull kernels pass
// false: they read v's record only to test it, never its page-resident
// out-edges, so one page per vertex suffices. The incremental kernels plan
// their seeded frontiers with it too.
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
