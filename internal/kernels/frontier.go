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

import (
	"sync"

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

// revAdj is a host-side reverse CSR over the slotted pages: pull-direction
// kernels scan in(v) instead of streaming every frontier page. It is built
// on first need (ensure) and lives as long as the kernel that owns it — not
// on the Graph or the System, where an index the size of the topology would
// stay on the heap for runs that never pull.
type revAdj struct {
	g       *slottedpage.Graph
	once    sync.Once
	offsets []int64
	targets []uint32
}

// ensure builds the index if no earlier call has. DirBFS calls it from
// PlanLevel (single-threaded, between supersteps) at the first level that
// plans pull, so the page kernels' in() calls only ever read.
func (r *revAdj) ensure() {
	r.once.Do(func() { r.offsets, r.targets = buildRevAdj(r.g) })
}

// in returns v's in-neighbors (sources of edges into v), ascending by
// source VID. ensure must have run.
func (r *revAdj) in(v uint64) []uint32 { return r.targets[r.offsets[v]:r.offsets[v+1]] }

// buildRevAdj builds the reverse CSR in two page-sequential passes through
// the graph's decoder: count in-degrees, prefix-sum them into offsets, then
// place each edge's source at its target's cursor. The cursor is the offsets
// array itself, shifted back into place afterwards. Pages hold vertices in
// VID order, so every in-list comes out ascending by source VID and pull
// scans are deterministic.
func buildRevAdj(g *slottedpage.Graph) (offsets []int64, targets []uint32) {
	n := g.NumVertices()
	offsets = make([]int64, n+1)
	dec, w := g.Decoder(), g.Decoder().Width()
	for pid := slottedpage.PageID(0); int(pid) < g.NumPages(); pid++ {
		buf := g.PageBytes(pid)
		for slot, slots := 0, g.Page(pid).NumSlots(); slot < slots; slot++ {
			for pos, end, _ := dec.Record(buf, slot); pos < end; pos += w {
				dst, _ := dec.VID(buf, pos)
				offsets[dst+1]++
			}
		}
	}
	for i := uint64(0); i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	targets = make([]uint32, offsets[n])
	for pid := slottedpage.PageID(0); int(pid) < g.NumPages(); pid++ {
		buf := g.PageBytes(pid)
		src := uint32(dec.StartVID(pid))
		for slot, slots := 0, g.Page(pid).NumSlots(); slot < slots; slot, src = slot+1, src+1 {
			for pos, end, _ := dec.Record(buf, slot); pos < end; pos += w {
				dst, _ := dec.VID(buf, pos)
				targets[offsets[dst]] = src
				offsets[dst]++
			}
		}
	}
	// offsets[v] now marks the end of v's list, which is the start of
	// v+1's: shift right by one to restore the starts.
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
	return offsets, targets
}

// outDegrees reads every vertex's out-degree off its records' ADJLIST_SZ
// fields (a large vertex's run pages sum); no adjacency entry is decoded.
func outDegrees(g *slottedpage.Graph) []int32 {
	out := make([]int32, g.NumVertices())
	dec := g.Decoder()
	for pid := slottedpage.PageID(0); int(pid) < g.NumPages(); pid++ {
		buf := g.PageBytes(pid)
		vid := dec.StartVID(pid)
		for slot, slots := 0, g.Page(pid).NumSlots(); slot < slots; slot, vid = slot+1, vid+1 {
			_, _, deg := dec.Record(buf, slot)
			out[vid] += int32(deg)
		}
	}
	return out
}

// markVertexPages sets the pages that must stream for vertex v: its home
// page, plus — when expandLP is set and v is a large vertex — the whole LP
// run, since push kernels expand the full adjacency. Pull kernels pass
// false: they read v's record only to test it, never its page-resident
// out-edges, so one page per vertex suffices.
func markVertexPages(g *slottedpage.Graph, v uint64, next *bitset.Set, expandLP bool) {
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
