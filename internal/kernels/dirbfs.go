package kernels

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// NewDirBFS returns a direction-optimizing BFS kernel over g, the BFS
// gts.System and the service run. It plans each level as either sparse
// push (frontier vertices expand their out-edges, as K_BFS_SP and K_BFS_LP
// do) or dense pull (unvisited vertices scan their in-edges and stop at the
// first frontier parent), switching on frontier-edge density with the
// Beamer-style threshold the Ligra baseline uses
// (internal/baselines/cpu/ligra.go): pull when the frontier's summed
// out-degree exceeds |E|/20. Dense levels touch a small fraction of the
// edges push would, because most scans early-exit after a handful of
// in-neighbors. The plain BFS is the paper's kernel, and its oracle.
//
// The advance+filter step is fused, as for every FrontierKernel: the plan
// rebuilds the exact page frontier from the level vector, pricing the
// frontier and planning both directions in one pass over the pages, so no
// dense candidate bitset is materialized and filtered. Discovered levels are
// byte-identical to plain BFS in every mode (a vertex's BFS level does not
// depend on which direction found it), which the differential and fuzz
// suites pin.
//
// Result.Edges uses the Graph500/Gunrock coverage convention — each
// discovered vertex contributes its out-degree at commit time, in both
// directions — so MTEPS stays comparable across direction switches (pull's
// scanned-edge count would undercount the traversal it performs).
// Result.Cycles still prices the work actually executed: early-exiting
// pull scans cost only the lanes they touched.
//
// It plans in DirAuto mode. Construction takes the graph's out-degree
// table; the graph's reverse index is fetched at the first pull level, so a
// traversal that only ever pushes never builds it.
func NewDirBFS(g *slottedpage.Graph) *BFS {
	k := NewBFS(g)
	k.outDeg = g.OutDegrees()
	k.pullPlan = bitset.New(g.NumPages())
	k.denseThreshold = int64(g.NumEdges() / 20)
	return k
}

// SetMode forces every level's direction (DirForcePush/DirForcePull) or
// restores density switching (DirAuto) of a direction-optimizing BFS. Call
// before Run.
func (k *BFS) SetMode(m DirMode) { k.mode = m }

// planDir is a direction-optimizing BFS's PlanLevel, in one pass over the
// pages, in vertex order. It prices the frontier (vertices at lv) and plans
// both directions as it goes: next gets the push plan, the pages of every
// frontier vertex (with a large vertex's whole run), and pullPlan the pull
// plan, the home page of every unvisited vertex (never a run's
// continuation pages). Then it picks the direction and keeps its plan.
func (k *BFS) planDir(levels []int16, lv int16, next *bitset.Set) Direction {
	g := k.g
	next.Reset()
	k.pullPlan.Reset()
	var frontierEdges int64
	empty := true
	for v, n := uint64(0), g.NumVertices(); v < n; {
		// Pages hold consecutive vertices in page order, so a small page's
		// vertices end where the next page's begin: the RVT bounds them
		// without reading the page's header.
		pid, end := g.HomeOf(v).PID, v+1
		if g.Kind(pid) == slottedpage.SmallPage {
			end = n
			if int(pid)+1 < g.NumPages() {
				end = g.RVT(pid + 1).StartVID
			}
		}
		push, vs := false, levels[v:end]
		for i, l := range vs {
			if l == lv {
				push = true
				frontierEdges += int64(k.outDeg.Of(v + uint64(i)))
			}
		}
		if push {
			MarkVertexPages(g, v, next, true)
		}
		if slices.Contains(vs, unvisited) {
			k.pullPlan.Set(int(pid))
		}
		empty = empty && !push
		v = end
	}
	if empty {
		k.dir = DirNone
		return DirNone
	}
	dir := DirPush
	switch k.mode {
	case DirForcePull:
		dir = DirPull
	case DirAuto:
		if frontierEdges > k.denseThreshold {
			dir = DirPull
		}
	}
	k.dir = dir
	if dir == DirPull {
		if k.rev == nil {
			k.rev = g.Reverse()
		}
		next.Reset()
		next.Or(k.pullPlan)
	}
	return dir
}

// pull scans each unvisited owned vertex's in-edges, early-exiting at the
// first parent on the frontier. Lane costs count only the scanned prefix.
// It reads the level vector and the reverse CSR, never the page's bytes
// beyond its slot count. A large vertex has only its home page planned in
// pull mode, so its run's continuation pages never stream.
func (k *BFS) pull(a *Args) Result {
	s := a.State.(*bfsState)
	n := a.Page.NumSlots()
	start := a.Graph.Decoder().StartVID(a.PID)
	var lanes laneAcc
	var res Result
	level := int16(a.Level)
	for slot, l := range s.lv[start:][:n] {
		if vid := start + uint64(slot); l == unvisited && a.owns(vid) {
			k.pullVertex(a, s, vid, level, &lanes, &res)
		}
	}
	res.Cycles = k.cost.cycles(int64(n), &lanes, a.Tech)
	return res
}

// pullVertex scans vid's in-neighbors for a frontier parent. The frontier
// test (lv == level) does not depend on page order: a phase only moves
// vertices from unvisited to level+1, never onto the current frontier.
func (k *BFS) pullVertex(a *Args, s *bfsState, vid uint64, level int16, lanes *laneAcc, res *Result) {
	scanned := 0
	found := false
	for _, u := range k.rev.In(vid) {
		scanned++
		if s.lv[u] == level {
			found = true
			break
		}
	}
	lanes.add(scanned)
	if !found {
		return
	}
	s.lv[vid] = level + 1
	res.Edges += int64(k.outDeg.Of(vid))
	res.Updates++
}
