package kernels

import (
	"slices"

	"repro/internal/slottedpage"
)

// CC implements connected components (weakly connected, since the slotted
// page stores out-edges) by iterative label propagation, a PageRank-like
// full-scan algorithm in the paper's taxonomy: every iteration streams the
// whole topology and propagates the minimum component label across each
// edge in both directions until a fixpoint.
//
// The state keeps previous and next label vectors (8 bytes/vertex), the
// footprint the paper's Table 4 reports for CC.
type CC struct {
	g    *slottedpage.Graph
	cost costParams
}

// NewCC returns a connected-components kernel over g.
func NewCC(g *slottedpage.Graph) *CC {
	return &CC{g: g, cost: costParams{laneCycles: 110, slotCycles: 50}}
}

type ccState struct {
	prev []uint32
	next []uint32
}

func (s *ccState) WABytes() int64 { return int64(len(s.prev)) * 8 }
func (s *ccState) Clone() State {
	return &ccState{prev: slices.Clone(s.prev), next: slices.Clone(s.next)}
}
func ccNext(st State) []uint32 { return st.(*ccState).next }

// NewState implements Kernel.
func (k *CC) NewState() State {
	n := k.g.NumVertices()
	return &ccState{prev: make([]uint32, n), next: make([]uint32, n)}
}

// Init implements Kernel: every vertex starts in its own component.
func (k *CC) Init(st State, _ uint64) {
	s := st.(*ccState)
	for i := range s.prev {
		s.prev[i] = uint32(i)
		s.next[i] = uint32(i)
	}
}

// Run is CC's K_SP and K_LP (Appendix D): propagate labels across each edge
// in both directions — the neighbor inherits the vertex's label and vice
// versa, whichever is smaller.
func (k *CC) Run(a *Args) Result {
	s := a.State.(*ccState)
	var res Result
	w := WalkPage(a)
	for w.Next() {
		pos, end, _ := w.Record()
		k.propagate(a, s, w.V, pos, end, &res)
	}
	return k.cost.done(a, &w, res)
}

func (k *CC) propagate(a *Args, s *ccState, vid uint64, pos, end int, res *Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	cv, ownsV := s.prev[vid], a.owns(vid)
	for w := dec.Width(); pos < end; pos += w {
		nvid, _ := dec.VID(buf, pos)
		if a.owns(nvid) && cv < s.next[nvid] {
			s.next[nvid] = cv
			res.Updates++
			res.Active = true
		}
		if cn := s.prev[nvid]; ownsV && cn < s.next[vid] {
			s.next[vid] = cn
			res.Updates++
			res.Active = true
		}
	}
}

// MergeStates implements Kernel: labels merge by minimum.
func (k *CC) MergeStates(sts []State) { Merge(sts, ccNext, Min) }

// EndIteration implements ScanKernel: next becomes prev; the fixpoint is
// reached when an iteration applies no update.
func (k *CC) EndIteration(sts []State, active bool) bool {
	for _, st := range sts {
		s := st.(*ccState)
		copy(s.prev, s.next)
	}
	return active
}

// Components exposes the final label vector.
func (k *CC) Components(st State) []uint32 { return st.(*ccState).prev }
