// Package kernels implements the GPU kernel functions of the paper's
// Appendix B — BFS and PageRank — plus the additional algorithms of
// Appendix D (SSSP, Connected Components, Betweenness Centrality), all
// operating directly on slotted-page bytes. The paper writes each algorithm
// as a small-page and a large-page kernel (K_SP and K_LP) because a GPU maps
// the two page kinds to threads differently; this model prices both with the
// same lane accounting, so each algorithm has one page kernel, and a large
// page is a page with one slot, its vertex.
//
// Each kernel executes *functionally* (it really computes the algorithm, in
// Go, against the attribute state) and *reports its cost* in model cycles,
// which internal/hw's GPU turns into virtual time. Cost depends on the
// micro-level parallel technique (paper §6.2): edge-centric virtual-warp
// processing, vertex-centric one-thread-per-vertex processing, or the
// per-page hybrid.
package kernels

import (
	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// Class separates the paper's two algorithm families (§3.3): traversal
// algorithms stream only the pages on the frontier, level by level;
// full-scan algorithms stream the whole topology once per iteration.
type Class int

// Algorithm classes.
const (
	BFSLike Class = iota
	PageRankLike
)

// String names the class as the paper does.
func (c Class) String() string {
	if c == PageRankLike {
		return "PageRank-like"
	}
	return "BFS-like"
}

// Technique selects the micro-level parallel processing scheme applied to
// each page (paper §6.2 and Appendix E).
type Technique int

// Techniques.
const (
	// EdgeCentric is the virtual-warp-centric default: a warp's threads
	// process one vertex's out-edges together. Balanced for dense pages,
	// wasteful (idle lanes) for very sparse ones.
	EdgeCentric Technique = iota
	// VertexCentric assigns one thread per vertex. Fine for uniform sparse
	// pages; SIMT lockstep makes every warp wait for its highest-degree
	// vertex, so skewed pages stall.
	VertexCentric
	// Hybrid picks the cheaper of the two per page, using the page's
	// density.
	Hybrid
)

// String names the technique.
func (t Technique) String() string {
	switch t {
	case VertexCentric:
		return "vertex-centric"
	case Hybrid:
		return "hybrid"
	default:
		return "edge-centric"
	}
}

// warpSize is the SIMT width the lane model uses.
const warpSize = 32

// Waste factors: an idle lane still occupies SIMT issue slots but performs
// no memory traffic, so it costs a fraction of an active lane. Vertex-
// centric divergence is costlier because the stalled lanes wait on another
// lane's dependent memory chain.
const (
	edgeCentricWaste   = 0.25
	vertexCentricWaste = 0.60
)

// laneAcc accumulates SIMT lane counts for the processed vertices of one
// page under both techniques, so Hybrid can pick the cheaper.
type laneAcc struct {
	edges   int64
	ecLanes int64 // edge-centric: ceil(d/32)*32 per vertex
	vcLanes int64 // vertex-centric: 32*max(d) per 32-vertex window
	winFill int
	winMax  int64
}

// add records one processed vertex with out-degree d.
func (l *laneAcc) add(d int) {
	l.edges += int64(d)
	l.ecLanes += int64((d + warpSize - 1) / warpSize * warpSize)
	if int64(d) > l.winMax {
		l.winMax = int64(d)
	}
	l.winFill++
	if l.winFill == warpSize {
		l.vcLanes += warpSize * l.winMax
		l.winFill, l.winMax = 0, 0
	}
}

// effectiveLanes reports the cost-weighted lane count under tech.
func (l *laneAcc) effectiveLanes(tech Technique) float64 {
	vc := l.vcLanes
	if l.winFill > 0 {
		vc += warpSize * l.winMax // flush the partial window
	}
	effEC := float64(l.edges) + edgeCentricWaste*float64(l.ecLanes-l.edges)
	effVC := float64(l.edges) + vertexCentricWaste*float64(vc-l.edges)
	switch tech {
	case VertexCentric:
		return effVC
	case Hybrid:
		if effVC < effEC {
			return effVC
		}
		return effEC
	default:
		return effEC
	}
}

// costParams calibrate an algorithm's per-lane and per-slot cycle costs.
// They are chosen so that the paper's Table 1 shape emerges: PageRank page
// kernels are an order of magnitude more compute-intensive than BFS page
// kernels (atomicAdd plus random float traffic vs. a level compare).
type costParams struct {
	laneCycles float64 // per effective SIMT lane
	slotCycles float64 // per slot visited (frontier check, slot decode)
}

func (c costParams) cycles(slots int64, l *laneAcc, tech Technique) float64 {
	return float64(slots)*c.slotCycles + c.laneCycles*l.effectiveLanes(tech)
}

// Args carries one page-kernel invocation's inputs (paper Algorithm 1
// lines 16-26).
//
// A page kernel reads Page through Graph's decoder (slottedpage.Decoder) at
// the point of use. Slot i is vertex dec.StartVID(PID) + i — the slot's VID
// field is never read — and a large page has one slot, StartVID itself,
// whose record is the page's part of that vertex's adjacency; dec.Record(buf, slot) gives the record's entries as
// [pos, end) in steps of dec.Width(), and dec.VID(buf, pos) resolves one
// entry to the neighbor's VID and home page inside the loop that uses them.
// Nothing is decoded ahead of use, so a kernel call allocates nothing and a
// frontier kernel touches page bytes only for frontier vertices.
type Args struct {
	Graph *slottedpage.Graph
	PID   slottedpage.PageID
	Page  slottedpage.Page
	State State
	// Level is the traversal level (BFS-like) or iteration (PageRank-like).
	Level int32
	// OwnedLo/OwnedHi bound the vertex range whose attribute entries this
	// GPU owns. Strategy-S partitions WA this way (§4.2); otherwise the
	// range covers all vertices.
	OwnedLo, OwnedHi uint64
	Tech             Technique
	// NextPIDs is this GPU's local nextPIDSet; BFS-like kernels set bits
	// for pages to visit at the next level. Nil for PageRank-like runs.
	NextPIDs *bitset.Set
}

// owns reports whether vertex v's attribute entry belongs to this GPU.
func (a *Args) owns(v uint64) bool { return v >= a.OwnedLo && v < a.OwnedHi }

// Result reports one page-kernel execution.
type Result struct {
	// Cycles is the simulated GPU work.
	Cycles float64
	// Edges counts adjacency entries traversed (for MTEPS metrics).
	Edges int64
	// Updates counts attribute writes (for metrics).
	Updates int64
	// Active reports whether the kernel changed any state (the paper's
	// inverted `finished` flag).
	Active bool
}

// State is an algorithm's attribute data. Strategy-P clones one replica per
// GPU and merges them after each superstep; Strategy-S shares one state and
// bounds updates by ownership.
type State interface {
	// WABytes is the device-resident (read/write) attribute footprint —
	// what the paper's Table 4 tabulates.
	WABytes() int64
	// Clone returns an independent deep copy.
	Clone() State
}

// Kernel is one graph algorithm's page kernel plus its state management,
// the unit the GTS framework (internal/core) schedules.
type Kernel interface {
	Class() Class
	// NewState allocates zeroed attribute state for the kernel's graph.
	NewState() State
	// Init seeds st for a run from source (PageRank-like kernels ignore
	// source).
	Init(st State, source uint64)
	// RAPerVertex is the per-vertex size of the streamed read-only
	// attribute subvector accompanying each page (0 if none).
	RAPerVertex() int64
	// Run is the page kernel, for small and large pages alike.
	Run(a *Args) Result
	// BeginLevel runs on each GPU's replica set at the start of a
	// level/iteration (before any page kernel).
	BeginLevel(sts []State, level int32)
	// MergeStates combines the per-GPU replicas' superstep updates and
	// makes every replica identical again (Strategy-P's steps 3-4).
	MergeStates(sts []State)
	// EndIteration advances state between full-scan iterations
	// (PageRank's prev/next swap); active reports whether any page kernel
	// changed state this iteration. It returns whether another iteration
	// is wanted. BFS-like kernels return false (the engine stops on an
	// empty nextPIDSet instead).
	EndIteration(sts []State, active bool) bool
}

// BackwardKernel is implemented by BFS-like kernels that need a reverse
// level sweep after the forward traversal finishes — Betweenness
// Centrality's dependency accumulation. The engine replays the per-level
// page sets it recorded during the forward phase, in descending level
// order.
type BackwardKernel interface {
	// BeginBackward runs once between the phases.
	BeginBackward(sts []State, maxLevel int32)
	// RunBack is the backward-phase page kernel.
	RunBack(a *Args) Result
}

// lpDegrees precomputes total out-degrees of large-page vertices: an LP
// record's ADJLIST_SZ is page-local, but kernels such as PageRank divide by
// the vertex's full degree (Appendix B, K_PR_LP).
func lpDegrees(g *slottedpage.Graph) map[uint64]int {
	m := make(map[uint64]int)
	dec := g.Decoder()
	for _, pid := range g.LPIDs() {
		_, _, deg := dec.Record(g.PageBytes(pid), 0)
		m[dec.StartVID(pid)] += deg
	}
	return m
}

// Weight is the deterministic synthetic edge weight used by SSSP: the
// slotted page format carries no edge values (the paper's SSSP runs store
// them likewise out of band), so weights derive from the endpoint IDs.
// The range is [1, 16].
func Weight(u, v uint64) float32 {
	h := u*0x9E3779B97F4A7C15 + v*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return float32(h%16 + 1)
}
