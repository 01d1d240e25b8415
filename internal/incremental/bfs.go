package incremental

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// unvisited mirrors the BFS kernel's NULL level.
const unvisited = -1

// Incremental kernels reuse the frontier machinery but report a simple
// edge-proportional cycle cost instead of the full SIMT lane model: their
// virtual time is never compared against full-kernel goldens (only their
// output vectors are).
type incCost struct{ lane, slot float64 }

func (c incCost) cycles(slots, edges int64) float64 {
	return float64(slots)*c.slot + float64(edges)*c.lane
}

// IncBFS re-executes BFS from a retained level vector: only vertices whose
// level an edge batch can lower are re-expanded. It is a monotone
// level-lowering relaxation — levels only ever decrease from the retained
// values — which is exact when every deleted edge was non-tight in the
// retained run (PlanBFS checks; tight deletes fall back to a full run).
//
// Plan state: PlanLevel diffs the merged level vector against its last
// snapshot, pends every lowered vertex at its new level, and expands the
// pending vertices level by level in ascending order — the standard
// dynamic-BFS worklist, expressed through the FrontierKernel contract.
type IncBFS struct {
	g    *slottedpage.Graph
	init []int16 // retained levels, extended, with verified seeds applied
	cost incCost

	// plan state (mutated only inside PlanLevel, read-only during phases);
	// lvPrev starts at the retained levels before the seeds, so the first
	// plan pends every seeded vertex.
	lvPrev []int16
	pend   map[int16][]uint64
	front  *bitset.Set
	cur    int16

	// Seeds is how many vertices the delta directly lowered (trace/metrics).
	Seeds int
}

type incBFSState struct{ lv []int16 }

func (s *incBFSState) WABytes() int64       { return int64(len(s.lv)) * 2 }
func (s *incBFSState) Clone() kernels.State { return &incBFSState{lv: slices.Clone(s.lv)} }
func incLevels(st kernels.State) []int16    { return st.(*incBFSState).lv }

// PlanBFS builds an incremental BFS kernel from a prior run's levels and the
// ops committed since (Store.Delta to g's snapshot), or reports a fallback
// reason. The safety argument:
//
//   - Deletes: removing an edge (u,v) that is non-tight w.r.t. the
//     retained levels (lv[v] != lv[u]+1 or u unreached) cannot change any
//     shortest distance — the retained BFS tree uses only tight edges, and
//     deleting non-tight edges leaves every tree path intact. Any tight
//     delete may disconnect or lengthen paths, so it falls back.
//   - Inserts: an edge (u,v) present in the *final* graph with
//     lv[u]+1 < lv[v] (or v unreached) seeds v at lv[u]+1; relaxation then
//     propagates. Ops whose edge did not survive the whole chain (inserted
//     then deleted) seed nothing. New distances are always <= retained
//     ones, so monotone lowering from the retained vector converges to the
//     exact new levels.
//   - Vertex growth: new vertices start unreached, exactly as a full run
//     would initialize them.
func PlanBFS(g *slottedpage.Graph, levels []int16, ops []EdgeOp) (*IncBFS, string) {
	n := g.NumVertices()
	if uint64(len(levels)) > n {
		return nil, "vertex-shrink"
	}
	// Tight-delete check against the retained levels.
	lvAt := func(v uint64) int16 {
		if v < uint64(len(levels)) {
			return levels[v]
		}
		return unvisited
	}
	for _, op := range ops {
		if !op.Del {
			continue
		}
		lu, lv := lvAt(op.Src), lvAt(op.Dst)
		if lu != unvisited && lv == lu+1 {
			return nil, "tight-delete"
		}
	}
	base := make([]int16, n)
	copy(base, levels)
	for i := len(levels); i < int(n); i++ {
		base[i] = unvisited
	}
	init := append([]int16(nil), base...)
	// Verify insert seeds against the final adjacency, applying them in op
	// order so chained inserts compound (any ordering converges — the
	// relaxation re-expands every lowered vertex — but op order is the
	// deterministic choice).
	var adjCache map[uint64]map[uint64]bool
	hasEdge := func(u, v uint64) bool {
		if adjCache == nil {
			adjCache = make(map[uint64]map[uint64]bool)
		}
		set, ok := adjCache[u]
		if !ok {
			set = make(map[uint64]bool)
			if u < n {
				g.NeighborsOf(u, func(dst uint64) { set[dst] = true })
			}
			adjCache[u] = set
		}
		return set[v]
	}
	seeds := 0
	for _, op := range ops {
		if op.Del || op.Src >= n || op.Dst >= n || !hasEdge(op.Src, op.Dst) {
			continue
		}
		lu := init[op.Src]
		if lu == unvisited {
			continue
		}
		if init[op.Dst] == unvisited || init[op.Dst] > lu+1 {
			init[op.Dst] = lu + 1
			seeds++
		}
	}
	return &IncBFS{
		g:      g,
		init:   init,
		cost:   incCost{lane: 40, slot: 10},
		lvPrev: base,
		pend:   make(map[int16][]uint64),
		front:  bitset.New(int(n)),
		Seeds:  seeds,
	}, ""
}

// NewState implements Kernel.
func (k *IncBFS) NewState() kernels.State {
	return &incBFSState{lv: make([]int16, k.g.NumVertices())}
}

// Init implements Kernel: the run starts from the retained levels with the
// delta's verified seeds already applied (source is ignored — it is baked
// into the retained vector).
func (k *IncBFS) Init(st kernels.State, _ uint64) {
	copy(st.(*incBFSState).lv, k.init)
}

// PlanLevel implements FrontierKernel: fold newly lowered vertices into
// the pending worklist, then expand the lowest pending level.
func (k *IncBFS) PlanLevel(sts []kernels.State, _ int32, next *bitset.Set) kernels.Direction {
	lv := sts[0].(*incBFSState).lv
	for v := range lv {
		if lv[v] != k.lvPrev[v] {
			k.pend[lv[v]] = append(k.pend[lv[v]], uint64(v))
			k.lvPrev[v] = lv[v]
		}
	}
	next.Reset()
	k.front.Reset()
	for len(k.pend) > 0 {
		min, found := int16(0), false
		for l := range k.pend {
			if !found || l < min {
				min, found = l, true
			}
		}
		any := false
		for _, v := range k.pend[min] {
			if lv[v] != min { // re-lowered since pended; a fresher pend entry covers it
				continue
			}
			k.front.Set(int(v))
			kernels.MarkVertexPages(k.g, v, next, true)
			any = true
		}
		delete(k.pend, min)
		if any {
			k.cur = min
			return kernels.DirPush
		}
	}
	return kernels.DirNone
}

// Run implements the page kernel, K_BFS_SP and K_BFS_LP (Algorithms 2 and
// 3) over the pending frontier: expand the page's frontier slots, whose
// neighbors improve to cur+1 when that lowers (or first sets) their level.
func (k *IncBFS) Run(a *kernels.Args) kernels.Result {
	s := a.State.(*incBFSState)
	var res kernels.Result
	w := kernels.WalkPage(a)
	for kernels.SeekSet(&w, k.front) {
		pos, end, _ := w.Record()
		found, _ := kernels.Discover(a, s.lv, pos, end, k.cur+1, nil)
		res.Add(found)
	}
	res.Edges = w.Edges()
	res.Cycles = k.cost.cycles(w.Slots(), w.Edges())
	return res
}

// MergeStates implements Kernel: levels merge by kernels.MinLevel —
// lowering is the only write this kernel performs.
func (k *IncBFS) MergeStates(sts []kernels.State) { kernels.Merge(sts, incLevels, kernels.MinLevel) }

// Levels exposes the result vector of a finished run.
func (k *IncBFS) Levels(st kernels.State) []int16 { return st.(*incBFSState).lv }
