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
// explored, so only the pages within the ball stream. Built by NewDirBFS it
// is direction-optimizing (dirbfs.go): each level pushes, as the paper's
// kernels do, or pulls.
type BFS struct {
	g    *slottedpage.Graph
	hops int16 // the hop cap; 0 means none
	cost costParams

	// A direction-optimizing BFS's plan state; outDeg is nil in a plain
	// BFS. outDeg (the graph's table) prices frontiers and coverage in both
	// directions; rev serves pull scans only and is fetched at the first
	// level that plans pull.
	outDeg *slottedpage.OutDegrees
	rev    *slottedpage.Reverse
	// pullPlan is PlanLevel's pull plan, kept when the level pulls.
	pullPlan *bitset.Set
	mode     DirMode
	// dir is the current level's planned direction. PlanLevel writes it
	// between supersteps; page kernels only read it.
	dir Direction
	// denseThreshold is Ligra's |E|/20 switch point.
	denseThreshold int64
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

// Plain reports whether k is the paper's BFS or a ball, not a
// direction-optimizing BFS: what a MultiBFS lane runs.
func (k *BFS) Plain() bool { return k.outDeg == nil }

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
// a vertex at that level, none past a hop cap. A direction-optimizing BFS
// plans push or pull in one pass (planDir).
func (k *BFS) PlanLevel(sts []State, level int32, next *bitset.Set) Direction {
	if k.outDeg != nil {
		return k.planDir(bfsLevels(sts[0]), int16(level), next)
	}
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
// neighbors, whose pages the next level's plan streams. A pull level runs
// pull instead. A direction-optimizing BFS reports coverage Edges (dirbfs.go).
func (k *BFS) Run(a *Args) Result {
	if k.dir == DirPull {
		return k.pull(a)
	}
	s := a.State.(*bfsState)
	var res Result
	var d *Discovery
	if k.outDeg != nil {
		d = &Discovery{Deg: k.outDeg}
	}
	level := int16(a.Level)
	w := WalkPage(a)
	for Seek(&w, s.lv, level) {
		pos, end, _ := w.Record()
		res.Add(Discover(a, s.lv, pos, end, level+1, d))
	}
	res = k.cost.done(a, &w, res)
	if d != nil {
		res.Edges = d.Cover
	}
	return res
}

// Discovery is what a traversal asks of each vertex Discover sets, beyond
// the count: the summed out-degrees of the discovered vertices (Cover, when
// Deg is not nil) and a mark per discovered vertex (when Mark is not nil).
// One pointer carries both, so the entry loop keeps its registers.
type Discovery struct {
	Deg   *slottedpage.OutDegrees
	Cover int64
	Mark  *bitset.Set
}

// Discover is the expand_warp device routine every level-vector traversal
// shares (BFS, its ball, a direction-optimizing BFS's push levels and the
// incremental BFS): it visits the entries of the record at [pos, end) in
// a's page and gives level nl to each owned neighbor whose level is later,
// returning how many it set; d, when not nil, collects its Discovery of
// each. Read as unsigned, unvisited (-1) is later than any level; a
// level-synchronous BFS has no vertex past nl, so there the test is the
// paper's "unvisited".
func Discover(a *Args, lv []int16, pos, end int, nl int16, d *Discovery) (found int64) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	ents, w := dec.Entries(), dec.Width()
	if sv, ok := ents.Words(); ok {
		for b := buf[pos:end]; len(b) >= 4; b = b[4:] {
			nvid, _ := slottedpage.WordVID(sv, b)
			if uint16(lv[nvid]) <= uint16(nl) || !a.owns(nvid) {
				continue
			}
			lv[nvid] = nl
			found++
			if d != nil {
				d.discovered(nvid)
			}
		}
		return found
	}
	for ; pos < end; pos += w {
		nvid, _ := ents.VID(buf, pos)
		if uint16(lv[nvid]) <= uint16(nl) || !a.owns(nvid) {
			continue
		}
		lv[nvid] = nl
		found++
		if d != nil {
			d.discovered(nvid)
		}
	}
	return found
}

// discovered records one vertex Discover set.
func (d *Discovery) discovered(v uint64) {
	if d.Deg != nil {
		d.Cover += int64(d.Deg.Of(v))
	}
	if d.Mark != nil {
		d.Mark.Set(int(v))
	}
}

// MergeStates implements Kernel: levels merge by MinLevel.
func (k *BFS) MergeStates(sts []State) { Merge(sts, bfsLevels, MinLevel) }

// Levels exposes the result vector of a finished run (a capped run's hop
// distances, -1 outside the ball).
func (k *BFS) Levels(st State) []int16 { return st.(*bfsState).lv }
