package kernels

import (
	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// DirBFS is the direction-optimizing variant of BFS, and the BFS gts.System
// and the service run: a FrontierKernel that plans each level as either
// sparse push (frontier vertices expand their out-edges, as K_BFS_SP and
// K_BFS_LP do) or dense pull (unvisited vertices scan their in-edges and
// stop at the first frontier parent), switching on frontier-edge density
// with the Beamer-style threshold the Ligra baseline uses
// (internal/baselines/cpu/ligra.go): pull when the frontier's summed
// out-degree exceeds |E|/20. Dense levels touch a small fraction of the
// edges push would, because most scans early-exit after a handful of
// in-neighbors. The plain BFS kernel is the paper's, and DirBFS's oracle.
//
// The advance+filter step is fused, as for every FrontierKernel: the plan
// rebuilds the exact page frontier from the level vector — push levels
// with pagesAtLevel, as BFS plans — so no dense candidate bitset is
// materialized and filtered. Discovered levels are
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
type DirBFS struct {
	// BFS supplies the level vector, its seeding and merge, the cost
	// parameters and Levels; DirBFS's page kernels are its own and it runs
	// no hop cap.
	BFS
	// outDeg (the graph's table) prices frontiers and coverage in both
	// directions; rev serves pull scans only and is fetched at the first
	// level that plans pull.
	outDeg *slottedpage.OutDegrees
	rev    *slottedpage.Reverse
	mode   DirMode
	// dir is the current level's planned direction. PlanLevel writes it
	// between supersteps; page kernels only read it.
	dir Direction
	// denseThreshold is Ligra's |E|/20 switch point.
	denseThreshold int64
}

// NewDirBFS returns a direction-optimizing BFS kernel over g, planning in
// DirAuto mode. Construction takes the graph's out-degree table; the
// graph's reverse index is fetched at the first pull level, so a traversal
// that only ever pushes never builds it.
func NewDirBFS(g *slottedpage.Graph) *DirBFS {
	return &DirBFS{
		BFS:            *NewBFS(g),
		outDeg:         g.OutDegrees(),
		denseThreshold: int64(g.NumEdges() / 20),
	}
}

// SetMode forces every level's direction (DirForcePush/DirForcePull) or
// restores density switching (DirAuto). Call before Run.
func (k *DirBFS) SetMode(m DirMode) { k.mode = m }

// PlanLevel implements FrontierKernel: price the frontier (vertices at
// `level`), pick a direction, and rebuild next as exactly the pages that
// direction streams — frontier home pages (with LP runs) for push, the
// home pages of every unvisited vertex for pull.
func (k *DirBFS) PlanLevel(sts []State, level int32, next *bitset.Set) Direction {
	s := sts[0].(*bfsState)
	next.Reset()
	lv := int16(level)
	var frontierEdges int64
	empty := true
	for v, l := range s.lv {
		if l == lv {
			empty = false
			frontierEdges += int64(k.outDeg.Of(uint64(v)))
		}
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
	if dir == DirPull && k.rev == nil {
		k.rev = k.g.Reverse()
	}
	if dir == DirPush {
		pagesAtLevel(k.g, s.lv, lv, next)
		return dir
	}
	for v, l := range s.lv {
		if l == unvisited {
			MarkVertexPages(k.g, uint64(v), next, false)
		}
	}
	return dir
}

// Run is DirBFS's K_SP and K_LP, dispatching on the planned direction: push
// is K_BFS_SP and K_BFS_LP (Algorithms 2 and 3), pull its dense reverse.
func (k *DirBFS) Run(a *Args) Result {
	if k.dir == DirPull {
		return k.pull(a)
	}
	return k.push(a)
}

// push is K_BFS_SP and K_BFS_LP. Its Edges are expand's coverage, not the
// walker's lanes.
func (k *DirBFS) push(a *Args) Result {
	s := a.State.(*bfsState)
	var res Result
	level := int16(a.Level)
	w := WalkPage(a)
	for Seek(&w, s.lv, level) {
		pos, end, _ := w.Record()
		k.expand(a, s, pos, end, level, &res)
	}
	res.Cycles = k.cost.cycles(w.Slots(), &w.lanes, a.Tech)
	return res
}

// expand visits one frontier vertex's adjacency, the record at [pos, end),
// discovering unvisited owned neighbors. Coverage (out-degree of the
// discovery) accrues with each discovery.
func (k *DirBFS) expand(a *Args, s *bfsState, pos, end int, level int16, res *Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	for w := dec.Width(); pos < end; pos += w {
		nvid, _ := dec.VID(buf, pos)
		if !a.owns(nvid) || s.lv[nvid] != unvisited {
			continue
		}
		s.lv[nvid] = level + 1
		res.Edges += int64(k.outDeg.Of(nvid))
		res.Updates++
		res.Active = true
	}
}

// pull scans each unvisited owned vertex's in-edges, early-exiting at the
// first parent on the frontier. Lane costs count only the scanned prefix.
// It reads the level vector and the reverse CSR, never the page's bytes
// beyond its slot count. A large vertex has only its home page planned in
// pull mode, so its run's continuation pages never stream.
func (k *DirBFS) pull(a *Args) Result {
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
func (k *DirBFS) pullVertex(a *Args, s *bfsState, vid uint64, level int16, lanes *laneAcc, res *Result) {
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
	res.Active = true
}
