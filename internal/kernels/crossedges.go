package kernels

import (
	"slices"

	"repro/internal/slottedpage"
)

// CrossEdges counts the edges crossing a bipartition of the vertices —
// §3.3's "cross-edges" full-scan algorithm. Side is the partition
// predicate (e.g. shard membership); the kernel scans every adjacency
// entry once.
type CrossEdges struct {
	g    *slottedpage.Graph
	side func(v uint64) bool
	cost costParams
}

// NewCrossEdges returns a cross-edge counter for the given bipartition.
func NewCrossEdges(g *slottedpage.Graph, side func(v uint64) bool) *CrossEdges {
	return &CrossEdges{g: g, side: side, cost: costParams{laneCycles: 25, slotCycles: 10}}
}

type crossState struct {
	// count holds per-vertex crossing-edge tallies so ownership splitting
	// and replica merging stay trivial (sum at the end).
	count []int64
}

func (s *crossState) WABytes() int64 { return int64(len(s.count)) * 8 }
func (s *crossState) Clone() State   { return &crossState{count: slices.Clone(s.count)} }
func crossCounts(st State) []int64   { return st.(*crossState).count }

// NewState implements Kernel.
func (k *CrossEdges) NewState() State {
	return &crossState{count: make([]int64, k.g.NumVertices())}
}

// Init implements Kernel.
func (k *CrossEdges) Init(st State, _ uint64) {
	clear(st.(*crossState).count)
}

// Run is the cross-edge count's K_SP and K_LP (§3.3): tally crossing edges
// for the page's vertices.
func (k *CrossEdges) Run(a *Args) Result {
	s := a.State.(*crossState)
	res := Result{Active: true}
	w := WalkPage(a)
	for w.Next() {
		pos, end, _ := w.Record()
		k.tally(a, s, w.V, pos, end, &res)
	}
	return k.cost.done(a, &w, res)
}

func (k *CrossEdges) tally(a *Args, s *crossState, vid uint64, pos, end int, res *Result) {
	if !a.owns(vid) {
		return
	}
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	vs := k.side(vid)
	for w := dec.Width(); pos < end; pos += w {
		if nvid, _ := dec.VID(buf, pos); k.side(nvid) != vs {
			s.count[vid]++
			res.Updates++
		}
	}
}

// MergeStates implements Kernel: per-vertex tallies are written by exactly
// one replica (the one that processed the vertex's pages), merged by sum
// (LP runs may split across replicas).
func (k *CrossEdges) MergeStates(sts []State) { Merge(sts, crossCounts, sumOf) }

// EndIteration implements ScanKernel: one scan suffices.
func (k *CrossEdges) EndIteration([]State, bool) bool { return false }

// Total reports the crossing-edge count.
func (k *CrossEdges) Total(st State) int64 {
	s := st.(*crossState)
	var sum int64
	for _, c := range s.count {
		sum += c
	}
	return sum
}
