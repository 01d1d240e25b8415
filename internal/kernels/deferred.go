package kernels

// This file defines the gather/apply execution contract that lets the GTS
// framework run page kernels on a pool of host worker goroutines while
// keeping results byte-identical to serial execution.
//
// The problem with naive parallelism: page kernels mutate shared attribute
// state (BFS sets levels, PageRank accumulates float contributions), and a
// page's kernel can observe mutations made by earlier pages of the same
// phase. Running pages concurrently would change what each kernel sees —
// float addition order, update counts, even control flow — and race.
//
// The contract splits one page-kernel execution into two halves:
//
//   - Gather (the page kernel called with Args.Deferred set): compute the
//     page against phase-start state WITHOUT mutating anything, recording
//     intended attribute writes as Ops in that Deferred buffer. Gathers for
//     different pages are independent and run concurrently. A gather must
//     only read quantities that are stable for the whole phase (frontier
//     membership, the read-only prev/RA vectors, lane counts) or emit
//     candidate writes that Apply re-validates.
//   - Apply: commit one page's Ops in their recorded order, mutating state
//     and NextPIDs exactly as the serial kernel would have, and
//     accumulating the order-dependent Result fields (Updates, Active).
//
// The framework gathers a wave of pages in parallel, then applies the wave
// serially in deterministic (GPU, page) order. Two properties make this
// byte-identical to the serial path:
//
//  1. Stability: everything a gather bakes into Ops or the Result (cycle
//     counts, edge counts, float contributions) depends only on state that
//     no same-phase apply mutates — e.g. BFS's frontier (this level's
//     vertices) is disjoint from its writes (next level's vertices), and
//     PageRank's contributions read prev while writes go to next.
//  2. Superset + recheck: conditional writes (BFS's "if unvisited",
//     CC's "if smaller") are emitted whenever the condition holds at
//     gather time — a superset of the serial writes, because these
//     conditions only turn false monotonically as the phase applies — and
//     Apply re-tests the condition against live state, reproducing the
//     serial decision, update count, and write order exactly.
//
// Plain SSSP is the one built-in kernel that cannot satisfy (1): a
// relaxation can improve a *frontier* vertex mid-phase (re-marking it
// active for the next level), which changes a later page's frontier check
// and therefore its simulated cycle count. Plain SSSP deliberately does not
// implement GatherKernel and runs on the serial path. DeltaSSSP recovers
// stability — and with it the parallel path — by restating the frontier as
// a delta-stepping bucket frozen at plan time (see frontier.go): the
// frontier flags and the base distance snapshot its relaxations read are
// written only between phases, so a mid-phase improvement merely re-pends
// the vertex for a later bucket round instead of perturbing this phase.

// OpKind discriminates a kernel's deferred-write variants where one kernel
// needs more than one (e.g. DegreeDist's set vs add).
type OpKind uint8

// Op is one deferred attribute write. The fields' meaning is owned by the
// kernel that emitted the op: Idx is a target index (vertex ID or a
// kernel-specific flattened index), Val carries value bits (float32/float64
// bits, a level, a label, a mask), and PID is a page to propose in
// NextPIDs when the apply succeeds (-1 = none).
type Op struct {
	Idx  uint64
	Val  uint64
	PID  int32
	Kind OpKind
}

// Deferred buffers one page's deferred writes between its Gather and its
// Apply. Buffers are reusable (Reset keeps the capacity) and are recycled by
// the framework through a sync.Pool, so steady-state gathers allocate
// nothing.
type Deferred struct {
	Ops []Op
}

// Reset empties the buffer, keeping capacity.
func (d *Deferred) Reset() { d.Ops = d.Ops[:0] }

// Len reports the buffered op count.
func (d *Deferred) Len() int { return len(d.Ops) }

// push appends one op.
func (d *Deferred) push(op Op) { d.Ops = append(d.Ops, op) }

// GatherKernel is implemented by kernels whose page work can gather
// concurrently against phase-start state and commit through a deterministic
// serial apply. The framework falls back to fully serial execution for
// kernels that do not implement it.
//
// There is one entry per page kind: RunSP and RunLP are the gather when
// Args.Deferred is set and the inline kernel when it is nil. As a gather
// they must not mutate State or NextPIDs, appending deferred writes to
// a.Deferred instead. The returned Result carries the phase-stable
// quantities (Cycles, Edges where it counts scanned adjacency, and Active
// where the serial kernel sets it unconditionally); Updates — and, for
// kernels whose Edges follow the coverage convention (DirBFS) —
// commit-gated Edges stay zero until Apply. Each kernel's Apply comment says
// why its gather is stable.
type GatherKernel interface {
	Kernel
	// Apply commits one page's deferred writes in recorded order, mutating
	// State and NextPIDs exactly as the serial kernel would, and
	// accumulating Updates/Active into res.
	Apply(a *Args, d *Deferred, res *Result)
}

// GatherBackwardKernel extends the contract to a BackwardKernel's reverse
// sweep (Betweenness Centrality's dependency accumulation): RunSPBack and
// RunLPBack honour Args.Deferred the same way.
type GatherBackwardKernel interface {
	BackwardKernel
	ApplyBack(a *Args, d *Deferred, res *Result)
}

// Compile-time checks: every built-in kernel except plain SSSP supports
// the parallel gather/apply path (its frontier check is not phase-stable;
// see the package comment above — DeltaSSSP is the gatherable
// formulation).
var (
	_ GatherKernel         = (*BFS)(nil)
	_ GatherKernel         = (*DirBFS)(nil)
	_ FrontierKernel       = (*DirBFS)(nil)
	_ GatherKernel         = (*DeltaSSSP)(nil)
	_ FrontierKernel       = (*DeltaSSSP)(nil)
	_ GatherKernel         = (*PageRank)(nil)
	_ GatherKernel         = (*CC)(nil)
	_ GatherKernel         = (*BC)(nil)
	_ GatherBackwardKernel = (*BC)(nil)
	_ GatherKernel         = (*Neighborhood)(nil)
	_ GatherKernel         = (*CrossEdges)(nil)
	_ GatherKernel         = (*RWR)(nil)
	_ GatherKernel         = (*DegreeDist)(nil)
	_ GatherKernel         = (*KCore)(nil)
	_ GatherKernel         = (*Radius)(nil)
)
