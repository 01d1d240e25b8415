package kernels

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// BFS implements the paper's K_BFS_SP and K_BFS_LP kernels (Algorithms 2
// and 3): level-synchronous breadth-first search whose only attribute
// vector is LV, the per-vertex traversal level. With a hop cap it is the
// k-hop out-neighborhood of the source (the "neighborhood / egonet" family
// of the paper's §3.3 BFS-like class): levels past the cap are not
// explored, so only the pages within the ball stream.
type BFS struct {
	g    *slottedpage.Graph
	hops int16 // the hop cap; 0 means none
	cost costParams
}

// NewBFS returns a BFS kernel over g.
func NewBFS(g *slottedpage.Graph) *BFS {
	return &BFS{g: g, cost: costParams{laneCycles: 40, slotCycles: 10}}
}

// NewNeighborhood returns a BFS kernel over g capped at hops, which must be
// in [1, MaxLevels]: its levels are the hop distances inside the ball, -1
// outside.
func NewNeighborhood(g *slottedpage.Graph, hops int) *BFS {
	k := NewBFS(g)
	k.hops = int16(hops)
	return k
}

// marks reports whether discoveries at level+1 are explored at the next
// level: always, but at a capped run's last level. A MultiBFS lane marks
// their pages only when they are.
func (k *BFS) marks(level int16) bool { return k.hops == 0 || level+1 < k.hops }

// unvisited marks a vertex not yet reached (the paper's NULL level).
const unvisited = -1

// MaxLevels bounds a run's supersteps, traversal levels and scan iterations
// alike, because level vectors are int16: the engine fails a run past level
// MaxLevels, and a request for more iterations is refused before any work.
const MaxLevels = 32000

type bfsState struct {
	lv []int16
}

func (s *bfsState) WABytes() int64 { return int64(len(s.lv)) * 2 }
func (s *bfsState) Clone() State   { return &bfsState{lv: slices.Clone(s.lv)} }
func bfsLevels(st State) []int16   { return st.(*bfsState).lv }

// NewState implements Kernel.
func (k *BFS) NewState() State {
	return &bfsState{lv: make([]int16, k.g.NumVertices())}
}

// Init implements Kernel: all levels NULL except the source at 0.
func (k *BFS) Init(st State, source uint64) {
	s := st.(*bfsState)
	for i := range s.lv {
		s.lv[i] = unvisited
	}
	s.lv[source] = 0
}

// PlanLevel implements FrontierKernel: the level streams the pages holding
// a vertex at that level, none past a hop cap.
func (k *BFS) PlanLevel(sts []State, level int32, next *bitset.Set) Direction {
	if k.hops != 0 && level >= int32(k.hops) {
		next.Reset()
		return DirNone
	}
	pagesAtLevel(k.g, bfsLevels(sts[0]), int16(level), next)
	return DirNone
}

// Run implements K_BFS_SP and K_BFS_LP (Algorithms 2 and 3): each warp
// takes one slot; if the vertex is on the current frontier its adjacency (on
// a large page, the page's part of it) expands, discovering unvisited
// neighbors, whose pages the next level's plan streams.
func (k *BFS) Run(a *Args) Result {
	s := a.State.(*bfsState)
	var res Result
	level := int16(a.Level)
	w := WalkPage(a)
	for Seek(&w, s.lv, level) {
		pos, end, _ := w.Record()
		k.expand(a, s, pos, end, level, &res)
	}
	return k.cost.done(a, &w, res)
}

// expand is the expand_warp device routine: visit every adjacency entry of
// the record at [pos, end) and set LV for undiscovered neighbors.
func (k *BFS) expand(a *Args, s *bfsState, pos, end int, level int16, res *Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	for w := dec.Width(); pos < end; pos += w {
		nvid, _ := dec.VID(buf, pos)
		if !a.owns(nvid) || s.lv[nvid] != unvisited {
			continue
		}
		s.lv[nvid] = level + 1
		res.Updates++
		res.Active = true
	}
}

// MergeStates implements Kernel: levels merge by MinLevel.
func (k *BFS) MergeStates(sts []State) { Merge(sts, bfsLevels, MinLevel) }

// Levels exposes the result vector of a finished run (a capped run's hop
// distances, -1 outside the ball).
func (k *BFS) Levels(st State) []int16 { return st.(*bfsState).lv }
