// Package kernels implements the GPU kernel functions of the paper's
// Appendix B — BFS and PageRank — plus the additional algorithms of
// Appendix D (SSSP, Connected Components, Betweenness Centrality), all
// operating directly on slotted-page bytes. The paper writes each algorithm
// as a small-page and a large-page kernel (K_SP and K_LP) because a GPU maps
// the two page kinds to threads differently; this model prices both with the
// same lane accounting, so each algorithm has one page kernel, and a large
// page is a page with one slot, its vertex. Variants of an algorithm share
// its kernel: Random Walk with Restart is PageRank's with a restart vertex
// (NewRWR), and the k-hop ball is BFS's with a hop cap (NewNeighborhood).
//
// Each kernel executes *functionally* (it really computes the algorithm, in
// Go, against the attribute state) and *reports its cost* in model cycles,
// which internal/hw's GPU turns into virtual time. Cost depends on the
// micro-level parallel technique (paper §6.2): edge-centric virtual-warp
// processing, vertex-centric one-thread-per-vertex processing, or the
// per-page hybrid.
package kernels

import (
	"cmp"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

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

// done closes a page the walker priced: Edges are the entries of the
// records it read, Cycles their lanes' price under a.Tech.
func (c costParams) done(a *Args, w *Walker, res Result) Result {
	res.Edges = w.lanes.edges
	res.Cycles = c.cycles(w.Slots(), &w.lanes, a.Tech)
	return res
}

// Walker is a page kernel's cursor over its page's slots, the loop every
// lane-priced kernel shares (SIMD-X's and Gunrock's split: the framework
// owns the loop, the kernel says what happens per vertex and per edge):
//
//	w := WalkPage(a)
//	for w.Next() { // a traversal: for Seek(&w, lv, level) {
//		pos, end, deg := w.Record()
//		<visit the entries at [pos, end)>
//	}
//	return k.cost.done(a, &w, res)
//
// Slot i is vertex StartVID+i; a large page has one slot. A kernel loops
// over the cursor rather than handing the walker a callback: a callback per
// vertex and per edge is an indirect call Go does not inline (EXPERIMENTS.md
// "one page walk").
type Walker struct {
	V     uint64 // the current slot's vertex
	rec   slottedpage.Records
	buf   []byte
	slot  int
	n     int
	lanes laneAcc
}

// WalkPage returns a walker before a's first slot.
func WalkPage(a *Args) Walker {
	dec := a.Graph.Decoder()
	return Walker{V: dec.StartVID(a.PID) - 1, rec: dec.Records, buf: a.Page.Bytes(), slot: -1, n: a.Page.NumSlots()}
}

// Next steps to the next slot, reporting false past the last.
func (w *Walker) Next() bool {
	w.slot++
	w.V++
	return w.slot < w.n
}

// Record locates the current slot's record, its entries at [pos, end) in
// steps of the decoder's Width, and counts its deg entries in the page's
// lanes. The record geometry is the walker's own copy of the decoder's.
func (w *Walker) Record() (pos, end, deg int) {
	pos, end, deg = w.rec.Record(w.buf, w.slot)
	w.lanes.add(deg)
	return pos, end, deg
}

// Seek steps to the next slot whose vertex v has vec[v] == x — the
// frontier test of a traversal — and reports false, leaving w spent, when
// no slot is left. It scans vec in a loop of its own: a Next loop keeps the
// cursor in memory, which cost SSSP's sparse frontier scans 10 %.
func Seek[T comparable](w *Walker, vec []T, x T) bool {
	for i, v := range vec[w.V+1:][:w.n-w.slot-1] {
		if v == x {
			w.slot += i + 1
			w.V += uint64(i + 1)
			return true
		}
	}
	return false
}

// SeekSet is Seek over a frontier kept as a bit set, skipping 64 vertices
// per clear word.
func SeekSet(w *Walker, set *bitset.Set) bool {
	v := set.NextSet(int(w.V)+1, int(w.V)+w.n-w.slot)
	w.slot += v - int(w.V)
	w.V = uint64(v)
	return w.slot < w.n
}

// Slots is the page's slot count.
func (w *Walker) Slots() int64 { return int64(w.n) }

// Edges is how many entries the records read so far hold.
func (w *Walker) Edges() int64 { return w.lanes.edges }

// Args carries one page-kernel invocation's inputs (paper Algorithm 1
// lines 16-26).
//
// A page kernel reads Page through Graph's decoder (slottedpage.Decoder) at
// the point of use. Slot i is vertex dec.StartVID(PID) + i — the slot's VID
// field is never read — and a large page has one slot, StartVID itself,
// whose record is the page's part of that vertex's adjacency.
// dec.Record(buf, slot) gives the record's entries as [pos, end) in steps
// of dec.Width(), and the entry reader ents := dec.Entries(), taken before
// the entry loop, resolves one entry with ents.VID(buf, pos) to the
// neighbor's VID and home page inside the loop that uses them. The loop
// counts its writes in a local and adds them to the Result once per record
// (Result.Add). Nothing is decoded ahead of use, so a kernel call allocates
// nothing and a frontier kernel touches page bytes only for frontier
// vertices.
//
// The entry loops the benchmark's workloads run (PageRank.scatter,
// RelaxMin, SSSP.relax, Discover and MultiBFS.pass) take a second form when ents.Words() reports the (2,2) layout: they walk
// buf[pos:end] four bytes at a time through slottedpage.WordVID, with no
// layout branch and no call per entry, and keep the VID loop for every
// other layout. Other kernels, and custom ones, need only the VID loop.
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
}

// owns reports whether vertex v's attribute entry belongs to this GPU.
func (a *Args) owns(v uint64) bool { return v >= a.OwnedLo && v < a.OwnedHi }

// Result reports one page-kernel execution.
type Result struct {
	// Cycles is the simulated GPU work.
	Cycles float64
	// Edges counts adjacency entries traversed (for MTEPS metrics).
	Edges int64
	// Updates counts attribute writes (for metrics). A scan's iteration
	// changed state (the paper's inverted `finished` flag) when its pages
	// counted any.
	Updates int64
}

// Add counts n attribute writes into r: how a page kernel folds in the
// writes one record's entry loop counted in a local.
func (r *Result) Add(n int64) { r.Updates += n }

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
// the unit the GTS framework (internal/core) schedules. The engine runs a
// ScanKernel (PageRank-like, §3.3) or a FrontierKernel (BFS-like: it plans
// the pages of each level itself) and refuses a Kernel that is neither.
type Kernel interface {
	// NewState allocates zeroed attribute state for the kernel's graph.
	NewState() State
	// Init seeds st for a run from source (full scans may ignore it).
	Init(st State, source uint64)
	// Run is the page kernel, for small and large pages alike.
	Run(a *Args) Result
	// MergeStates combines the per-GPU replicas' superstep updates and
	// makes every replica identical again (Strategy-P's steps 3-4); Merge
	// derives it vector by vector.
	MergeStates(sts []State)
}

// ScanKernel is a full-scan kernel (PageRank-like, §3.3): every iteration
// streams the whole topology.
type ScanKernel interface {
	Kernel
	// EndIteration advances state between iterations (PageRank's prev/next
	// swap); active reports whether the iteration's page kernels counted
	// any update. It returns whether another iteration is wanted.
	EndIteration(sts []State, active bool) bool
}

// BeginLevel runs k's BeginLevel(sts, level), if it has one, on each GPU's
// replica set at the start of a level or iteration, before any page kernel.
func BeginLevel(k Kernel, sts []State, level int32) {
	if b, ok := k.(interface{ BeginLevel([]State, int32) }); ok {
		b.BeginLevel(sts, level)
	}
}

// RAPerVertex is k's RAPerVertex(), if it has one, else 0: the per-vertex
// size of the read-only attribute vector (RA), which the engine either
// streams with each page or keeps resident beside WA.
func RAPerVertex(k Kernel) int64 {
	if r, ok := k.(interface{ RAPerVertex() int64 }); ok {
		return r.RAPerVertex()
	}
	return 0
}

// UpdateBytes is k's UpdateBytes(), if it has one, else waPerVertex: the
// bytes one attribute update moves in a traversal's Strategy-P peer merge.
func UpdateBytes(k Kernel, waPerVertex int64) int64 {
	if u, ok := k.(interface{ UpdateBytes() int64 }); ok {
		return u.UpdateBytes()
	}
	return waPerVertex
}

// Merge is Strategy-P's merge of one attribute vector: it folds every
// replica's vec into replica 0's, entry by entry and replica by replica, as
// b = combine(v, b, o), then copies the result back to the others.
func Merge[T any](sts []State, vec func(State) []T, combine func(v int, b, o T) T) {
	if len(sts) < 2 {
		return
	}
	base := vec(sts[0])
	for _, st := range sts[1:] {
		for v, o := range vec(st) {
			base[v] = combine(v, base[v], o)
		}
	}
	for _, st := range sts[1:] {
		copy(vec(st), base)
	}
}

// MinLevel is the combine of level vectors: the earlier level wins, and
// unvisited is the identity.
func MinLevel(_ int, b, o int16) int16 {
	if o != unvisited && (b == unvisited || o < b) {
		return o
	}
	return b
}

// Min is the combine of label vectors: the lower label wins.
func Min[T cmp.Ordered](_ int, b, o T) T { return min(b, o) }

// More combines for Merge.
func maxOf[T cmp.Ordered](_ int, b, o T) T   { return max(b, o) }
func sumOf[T int32 | int64](_ int, b, o T) T { return b + o }
func orOf(_ int, b, o uint32) uint32         { return b | o }

// BackwardKernel is implemented by FrontierKernels that need a reverse
// level sweep after the forward traversal finishes — Betweenness
// Centrality's dependency accumulation. The engine re-plans each forward
// level with PlanLevel, in descending level order, and runs RunBack, the
// backward-phase page kernel, over it.
type BackwardKernel interface {
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
// The range is [1, 16]. The low four bits convert through int32, which is
// one instruction whether or not the compiler proves the value's range (a
// uint64 needs that proof to skip its high-bit branch).
func Weight(u, v uint64) float32 { return weightTo(weightSrc(u), v) }

// weightSrc and weightTo are Weight's two halves, bit for bit: an entry loop
// over u's record takes u's half once, before the loop.
func weightSrc(u uint64) uint64 { return u * 0x9E3779B97F4A7C15 }

func weightTo(hu, v uint64) float32 {
	h := hu + v*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return float32(int32(h&15) + 1)
}
