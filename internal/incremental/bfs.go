// Package incremental re-executes BFS and CC from a prior run's output and
// the ingest ops since, instead of from scratch. The contract is exactness,
// not approximation: every incremental run must produce output
// byte-identical to a from-scratch recompute on the new snapshot, clean or
// faulted. Where that cannot be guaranteed (tight deletes under BFS, any
// delete under CC) the planner refuses and the caller falls back to a full
// run.
//
// Only plans that beat a full run on the clock a caller waits on live here:
// BFS and CC delta-expansion cost 0.25-0.45 of a full run's wall; PageRank
// trajectory patching cost 3.5x one at every random batch and was deleted
// (EXPERIMENTS.md, incremental).
//
// The package is the planners alone (PlanBFS, PlanCC): each decides safe vs
// fallback for a prior output and the ops since, and builds a
// FrontierKernel seeded from them. The prior is the caller's (the service
// keeps it in its job table), and so are the ops: a mutable graph keeps its
// own commit chain (gts.MutableGraph.Delta).
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

// IncBFS re-executes BFS from a prior run's level vector: only vertices
// whose level an edge batch can lower are re-expanded. It is a monotone
// level-lowering relaxation — levels only ever decrease from the prior
// values — which is exact when every deleted edge was non-tight in the
// prior run (PlanBFS checks; tight deletes fall back to a full run).
//
// The kernel keeps the prior read-only and its verified seeds beside it, so
// the run's own state is its only copy of the level vector. Plan state:
// every vertex the run lowers is marked (Init marks the seeds, Run's
// Discover each lowering); PlanLevel pends the marked vertices at their new
// levels and expands the pending vertices level by level in ascending order
// — the standard dynamic-BFS worklist, expressed through the FrontierKernel
// contract.
type IncBFS struct {
	g     *slottedpage.Graph
	prior []int16          // the prior run's levels, never written
	seeds map[uint64]int16 // verified seeds: vertex -> its lowered level
	cost  incCost

	// plan state (mutated only inside PlanLevel, read-only during phases,
	// but for Discover's marks): lowered.Mark holds the vertices lowered
	// since the last plan.
	lowered kernels.Discovery
	pend    map[int16][]uint64
	front   *bitset.Set
	cur     int16

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
//     prior levels (lv[v] != lv[u]+1 or u unreached) cannot change any
//     shortest distance — the prior BFS tree uses only tight edges, and
//     deleting non-tight edges leaves every tree path intact. Any tight
//     delete may disconnect or lengthen paths, so it falls back.
//   - Inserts: an edge (u,v) present in the *final* graph with
//     lv[u]+1 < lv[v] (or v unreached) seeds v at lv[u]+1; relaxation then
//     propagates. Ops whose edge did not survive the whole chain (inserted
//     then deleted) seed nothing. New distances are always <= prior ones,
//     so monotone lowering from the prior vector converges to the exact new
//     levels.
//   - Vertex growth: new vertices start unreached, exactly as a full run
//     would initialize them.
func PlanBFS(g *slottedpage.Graph, levels []int16, ops []slottedpage.EdgeOp) (*IncBFS, string) {
	n := g.NumVertices()
	if uint64(len(levels)) > n {
		return nil, "vertex-shrink"
	}
	k := &IncBFS{
		g:       g,
		prior:   levels,
		seeds:   make(map[uint64]int16),
		cost:    incCost{lane: 40, slot: 10},
		lowered: kernels.Discovery{Mark: bitset.New(int(n))},
		pend:    make(map[int16][]uint64),
		front:   bitset.New(int(n)),
	}
	// Tight-delete check against the prior levels (no seed is set yet).
	for _, op := range ops {
		if !op.Del {
			continue
		}
		lu, lv := k.level(op.Src), k.level(op.Dst)
		if lu != unvisited && lv == lu+1 {
			return nil, "tight-delete"
		}
	}
	// Verify insert seeds against the final adjacency, applying them in op
	// order so chained inserts compound (any ordering converges — the
	// relaxation re-expands every lowered vertex — but op order is the
	// deterministic choice).
	for _, op := range ops {
		if op.Del || op.Src >= n || op.Dst >= n || !hasEdge(g, op.Src, op.Dst) {
			continue
		}
		lu := k.level(op.Src)
		if lu == unvisited {
			continue
		}
		if lv := k.level(op.Dst); lv == unvisited || lv > lu+1 {
			k.seeds[op.Dst] = lu + 1
			k.Seeds++
		}
	}
	return k, ""
}

// level is v's level before the run: its seed, else its prior level, else
// unvisited (a vertex the prior run did not have).
func (k *IncBFS) level(v uint64) int16 {
	if l, ok := k.seeds[v]; ok {
		return l
	}
	if v < uint64(len(k.prior)) {
		return k.prior[v]
	}
	return unvisited
}

// hasEdge reports whether g has the edge (u, v).
func hasEdge(g *slottedpage.Graph, u, v uint64) bool {
	found := false
	g.NeighborsOf(u, func(dst uint64) { found = found || dst == v })
	return found
}

// NewState implements Kernel.
func (k *IncBFS) NewState() kernels.State {
	return &incBFSState{lv: make([]int16, k.g.NumVertices())}
}

// Init implements Kernel: the run starts from the prior levels, extended
// with unvisited vertices, with the delta's verified seeds applied and
// marked (source is ignored — it is baked into the prior vector).
func (k *IncBFS) Init(st kernels.State, _ uint64) {
	lv := st.(*incBFSState).lv
	copy(lv, k.prior)
	for i := len(k.prior); i < len(lv); i++ {
		lv[i] = unvisited
	}
	for v, l := range k.seeds {
		lv[v] = l
		k.lowered.Mark.Set(int(v))
	}
}

// PlanLevel implements FrontierKernel: fold the vertices lowered since the
// last plan into the pending worklist, then expand the lowest pending level.
func (k *IncBFS) PlanLevel(sts []kernels.State, _ int32, next *bitset.Set) kernels.Direction {
	lv := sts[0].(*incBFSState).lv
	k.lowered.Mark.ForEach(func(v int) { k.pend[lv[v]] = append(k.pend[lv[v]], uint64(v)) })
	k.lowered.Mark.Reset()
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
		res.Add(kernels.Discover(a, s.lv, pos, end, k.cur+1, &k.lowered))
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
