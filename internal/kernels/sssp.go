package kernels

import (
	"math"
	"slices"

	"repro/internal/slottedpage"
)

// SSSP implements single-source shortest paths as a frontier-driven
// Bellman-Ford, the BFS-like formulation the paper's §3.3 groups it under:
// a vertex whose distance improved at level L relaxes its out-edges at
// level L+1, and only the pages holding active vertices stream.
//
// Edge weights come from kernels.Weight (deterministic, derived from the
// endpoints) because the slotted page format carries topology only.
//
// A relaxation can improve a vertex that is *on the current frontier*
// (re-marking it active for this very level via active[nvid] = Level+1
// while dist keeps improving), so a later page's frontier check — and with
// it the page's simulated cycle/edge counts — depends on earlier pages'
// same-phase writes. It is the one SSSP: the served kernel and the
// reference oracle. Freezing each
// level's frontier to the lowest delta-stepping distance bucket reaches the
// same distances over the same pages in 1.8× the levels, at 1.2–1.5× the
// host wall (EXPERIMENTS.md, "sssp").
type SSSP struct {
	g    *slottedpage.Graph
	cost costParams
}

// NewSSSP returns an SSSP kernel over g.
func NewSSSP(g *slottedpage.Graph) *SSSP {
	return &SSSP{g: g, cost: costParams{laneCycles: 50, slotCycles: 12}}
}

const inf = float32(math.MaxFloat32)

type ssspState struct {
	dist   []float32
	active []int32 // level at which the vertex last improved
}

func (s *ssspState) WABytes() int64 { return int64(len(s.dist)) * (4 + 4) }
func (s *ssspState) Clone() State {
	return &ssspState{dist: slices.Clone(s.dist), active: slices.Clone(s.active)}
}

// NewState implements Kernel.
func (k *SSSP) NewState() State {
	n := k.g.NumVertices()
	return &ssspState{dist: make([]float32, n), active: make([]int32, n)}
}

// Init implements Kernel.
func (k *SSSP) Init(st State, source uint64) {
	s := st.(*ssspState)
	for i := range s.dist {
		s.dist[i] = inf
		s.active[i] = -1
	}
	s.dist[source] = 0
	s.active[source] = 0
}

// Run is SSSP's K_SP and K_LP (Appendix D): relax the out-edges of every
// vertex in the page that improved at the current level (on a large page,
// the page's part of one vertex's out-edges).
func (k *SSSP) Run(a *Args) Result {
	s := a.State.(*ssspState)
	var res Result
	w := WalkPage(a)
	for Seek(&w, s.active, a.Level) {
		pos, end, _ := w.Record()
		k.relax(a, s, w.V, pos, end, &res)
	}
	return k.cost.done(a, &w, res)
}

func (k *SSSP) relax(a *Args, s *ssspState, vid uint64, pos, end int, res *Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	base := s.dist[vid]
	for w := dec.Width(); pos < end; pos += w {
		nvid, npid := dec.VID(buf, pos)
		if !a.owns(nvid) {
			continue
		}
		nd := base + Weight(vid, nvid)
		if nd < s.dist[nvid] {
			s.dist[nvid] = nd
			s.active[nvid] = a.Level + 1
			a.NextPIDs.Set(int(npid))
			res.Updates++
			res.Active = true
		}
	}
}

// MergeStates implements Kernel: the shorter distance wins; its activity
// mark comes along so the owning replica's frontier survives the merge.
func (k *SSSP) MergeStates(sts []State) {
	if len(sts) < 2 {
		return
	}
	base := sts[0].(*ssspState)
	for _, other := range sts[1:] {
		o := other.(*ssspState)
		for v := range base.dist {
			switch {
			case o.dist[v] < base.dist[v]:
				base.dist[v] = o.dist[v]
				base.active[v] = o.active[v]
			case o.dist[v] == base.dist[v] && o.active[v] > base.active[v]:
				base.active[v] = o.active[v]
			}
		}
	}
	for _, other := range sts[1:] {
		o := other.(*ssspState)
		copy(o.dist, base.dist)
		copy(o.active, base.active)
	}
}

// Distances exposes the result vector; unreachable vertices hold +Inf
// (math.MaxFloat32).
func (k *SSSP) Distances(st State) []float32 { return st.(*ssspState).dist }
