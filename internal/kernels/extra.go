package kernels

import (
	"slices"

	"repro/internal/slottedpage"
)

// This file implements the further algorithms the paper's §3.3 lists in its
// two classes beyond the evaluated five: Random Walk with Restart and
// degree distribution (PageRank-like full scans) and K-core decomposition
// (iterative full scans).

// RWR implements Random Walk with Restart: PageRank's iteration with the
// teleport mass concentrated on a single query vertex. It reuses the
// K_PR-style scatter kernels; only the restart vector differs.
type RWR struct {
	g          *slottedpage.Graph
	restart    float64
	iterations int32
	lpDeg      map[uint64]int
	cost       costParams
}

// NewRWR returns an RWR kernel with restart probability c (typically 0.15)
// running the given iteration count.
func NewRWR(g *slottedpage.Graph, c float64, iterations int) *RWR {
	return &RWR{
		g:          g,
		restart:    c,
		iterations: int32(iterations),
		lpDeg:      lpDegrees(g),
		cost:       costParams{laneCycles: 160, slotCycles: 50},
	}
}

// rwrState splits like PageRank's: next is WA, prev is RA (streamed per page,
// or device-resident beside WA when the engine finds room).
type rwrState struct {
	prev   []float32
	next   []float32
	source uint64
	iter   int32
}

func (s *rwrState) WABytes() int64 { return int64(len(s.next)) * 4 }
func (s *rwrState) Clone() State {
	return &rwrState{prev: slices.Clone(s.prev), next: slices.Clone(s.next), source: s.source, iter: s.iter}
}
func rwrNext(st State) []float32 { return st.(*rwrState).next }

// restartMass is the teleport value of vertex v for a walk restarting at
// src.
func (k *RWR) restartMass(v, src uint64) float32 {
	if v == src {
		return float32(k.restart)
	}
	return 0
}

// RAPerVertex is the optional hook kernels.RAPerVertex reads: 4 bytes of
// prev accompany each vertex.
func (k *RWR) RAPerVertex() int64 { return 4 }

// NewState implements Kernel.
func (k *RWR) NewState() State {
	n := k.g.NumVertices()
	return &rwrState{prev: make([]float32, n), next: make([]float32, n)}
}

// Init implements Kernel: all mass starts at the query vertex.
func (k *RWR) Init(st State, source uint64) {
	s := st.(*rwrState)
	s.source = source
	for i := range s.prev {
		s.prev[i] = 0
		s.next[i] = k.restartMass(uint64(i), source)
	}
	s.prev[source] = 1
	s.iter = 0
}

// Run is RWR's K_SP and K_LP (§3.3): scatter (1-c) * prev[v]/deg(v) along
// out-edges, dividing a large page's part by its vertex's total degree, as
// PageRank's Run does.
func (k *RWR) Run(a *Args) Result {
	s := a.State.(*rwrState)
	large := a.Graph.Kind(a.PID) == slottedpage.LargePage
	res := Result{Active: true}
	walk := float32(1 - k.restart)
	w := WalkPage(a)
	for w.Next() {
		pos, end, deg := w.Record()
		pr := s.prev[w.V]
		if deg == 0 || pr == 0 {
			continue
		}
		if large {
			deg = k.lpDeg[w.V]
		}
		k.scatter(a, s, pos, end, walk*pr/float32(deg), &res)
	}
	return k.cost.done(a, &w, res)
}

func (k *RWR) scatter(a *Args, s *rwrState, pos, end int, contrib float32, res *Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	for w := dec.Width(); pos < end; pos += w {
		nvid, _ := dec.VID(buf, pos)
		if !a.owns(nvid) {
			continue
		}
		s.next[nvid] += contrib
		res.Updates++
	}
}

// MergeStates implements Kernel: base-relative additive merge, like
// PageRank's, the base being each vertex's restart mass.
func (k *RWR) MergeStates(sts []State) {
	src := sts[0].(*rwrState).source
	Merge(sts, rwrNext, func(v int, b, o float32) float32 { return b + (o - k.restartMass(uint64(v), src)) })
}

// EndIteration implements ScanKernel.
func (k *RWR) EndIteration(sts []State, _ bool) bool {
	for _, st := range sts {
		s := st.(*rwrState)
		copy(s.prev, s.next)
		for i := range s.next {
			s.next[i] = k.restartMass(uint64(i), s.source)
		}
		s.iter++
	}
	return sts[0].(*rwrState).iter < k.iterations
}

// Scores exposes the final proximity vector.
func (k *RWR) Scores(st State) []float32 { return st.(*rwrState).prev }

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
