package kernels

import (
	"slices"

	"repro/internal/slottedpage"
)

// This file implements the further algorithms the paper's §3.3 lists in its
// two classes beyond the evaluated five: degree distribution (a
// PageRank-like full scan) and K-core decomposition (iterative full scans).
// Random Walk with Restart, the class's other member, runs on PageRank's
// kernel with a restart vertex (NewRWR in pagerank.go).

// DegreeDist computes per-vertex out-degrees in one full scan — the
// simplest PageRank-like algorithm the paper lists. Degrees come straight
// from the records' ADJLIST_SZ fields (summed across an LP run).
type DegreeDist struct {
	g    *slottedpage.Graph
	cost costParams
}

// NewDegreeDist returns the kernel.
func NewDegreeDist(g *slottedpage.Graph) *DegreeDist {
	return &DegreeDist{g: g, cost: costParams{laneCycles: 0, slotCycles: 15}}
}

type degState struct {
	deg []int32
}

func (s *degState) WABytes() int64 { return int64(len(s.deg)) * 4 }
func (s *degState) Clone() State   { return &degState{deg: slices.Clone(s.deg)} }
func degrees(st State) []int32     { return st.(*degState).deg }

// NewState implements Kernel.
func (k *DegreeDist) NewState() State {
	return &degState{deg: make([]int32, k.g.NumVertices())}
}

// Init implements Kernel.
func (k *DegreeDist) Init(st State, _ uint64) {
	clear(st.(*degState).deg)
}

// Run is the degree distribution's K_SP and K_LP (§3.3): add each slot's
// ADJLIST_SZ to its vertex's degree, so the pages of a large vertex's run
// sum to its total. It reads no adjacency entry, so it prices slots alone
// and counts no edges.
func (k *DegreeDist) Run(a *Args) Result {
	s := a.State.(*degState)
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	n := a.Page.NumSlots()
	var res Result
	for slot, vid := 0, dec.StartVID(a.PID); slot < n; slot, vid = slot+1, vid+1 {
		if !a.owns(vid) {
			continue
		}
		_, _, deg := dec.Record(buf, slot)
		s.deg[vid] += int32(deg)
		res.Updates++
	}
	var lanes laneAcc
	res.Cycles = k.cost.cycles(int64(n), &lanes, a.Tech)
	res.Active = true
	return res
}

// MergeStates implements Kernel: degrees merge by sum. Every replica starts
// the scan at zero and only a vertex's own pages write its entry, so the sum
// is the vertex's degree whether its pages (a large vertex's run) landed on
// one replica or several.
func (k *DegreeDist) MergeStates(sts []State) { Merge(sts, degrees, sumOf) }

// EndIteration implements ScanKernel: one scan suffices.
func (k *DegreeDist) EndIteration([]State, bool) bool { return false }

// Degrees exposes the per-vertex out-degrees.
func (k *DegreeDist) Degrees(st State) []int32 { return st.(*degState).deg }

// Histogram folds the degrees into counts[d] = #vertices of degree d.
func (k *DegreeDist) Histogram(st State) []int64 {
	s := st.(*degState)
	max := int32(0)
	for _, d := range s.deg {
		if d > max {
			max = d
		}
	}
	h := make([]int64, max+1)
	for _, d := range s.deg {
		h[d]++
	}
	return h
}

// KCore computes the K-core membership of every vertex over the
// *undirected* view of the graph: iteratively peel vertices with fewer
// than K alive neighbors (counting both edge directions) until a fixpoint.
// Each peel round is a full scan, making this PageRank-like.
type KCore struct {
	g    *slottedpage.Graph
	K    int32
	cost costParams
}

// NewKCore returns a K-core kernel for the given K.
func NewKCore(g *slottedpage.Graph, k int) *KCore {
	return &KCore{g: g, K: int32(k), cost: costParams{laneCycles: 60, slotCycles: 20}}
}

type kcoreState struct {
	alive []bool
	count []int32 // alive-neighbor counts accumulated this round
}

func (s *kcoreState) WABytes() int64 { return int64(len(s.alive)) * (1 + 4) }
func (s *kcoreState) Clone() State {
	return &kcoreState{alive: slices.Clone(s.alive), count: slices.Clone(s.count)}
}
func kcoreCounts(st State) []int32 { return st.(*kcoreState).count }

// NewState implements Kernel.
func (k *KCore) NewState() State {
	n := k.g.NumVertices()
	return &kcoreState{alive: make([]bool, n), count: make([]int32, n)}
}

// Init implements Kernel.
func (k *KCore) Init(st State, _ uint64) {
	s := st.(*kcoreState)
	for i := range s.alive {
		s.alive[i] = true
		s.count[i] = 0
	}
}

// BeginLevel is the optional hook kernels.BeginLevel runs: reset this
// round's counts.
func (k *KCore) BeginLevel(sts []State, _ int32) {
	for _, st := range sts {
		clear(st.(*kcoreState).count)
	}
}

// Run is K-core's K_SP and K_LP (§3.3): count alive neighbors across each
// edge in both directions.
func (k *KCore) Run(a *Args) Result {
	s := a.State.(*kcoreState)
	res := Result{Active: true}
	w := WalkPage(a)
	for w.Next() {
		pos, end, _ := w.Record()
		k.tally(a, s, w.V, pos, end, &res)
	}
	return k.cost.done(a, &w, res)
}

func (k *KCore) tally(a *Args, s *kcoreState, vid uint64, pos, end int, res *Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	aliveV, ownsV := s.alive[vid], a.owns(vid)
	for w := dec.Width(); pos < end; pos += w {
		nvid, _ := dec.VID(buf, pos)
		if aliveV && a.owns(nvid) {
			s.count[nvid]++
			res.Updates++
		}
		if s.alive[nvid] && ownsV {
			s.count[vid]++
			res.Updates++
		}
	}
}

// MergeStates implements Kernel: counts are additive per superstep (each
// replica saw disjoint pages); alive flags are identical going in.
func (k *KCore) MergeStates(sts []State) { Merge(sts, kcoreCounts, sumOf) }

// EndIteration implements ScanKernel: peel under-degree vertices; another
// round runs if anything was peeled.
func (k *KCore) EndIteration(sts []State, _ bool) bool {
	peeled := false
	base := sts[0].(*kcoreState)
	for v := range base.alive {
		if base.alive[v] && base.count[v] < k.K {
			base.alive[v] = false
			peeled = true
		}
	}
	for _, st := range sts[1:] {
		copy(st.(*kcoreState).alive, base.alive)
	}
	return peeled
}

// InCore exposes the membership vector: true means the vertex survives in
// the K-core.
func (k *KCore) InCore(st State) []bool { return st.(*kcoreState).alive }
