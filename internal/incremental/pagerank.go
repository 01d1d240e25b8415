package incremental

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// IncPR recomputes PageRank after an edge batch without touching the
// untouched part of the graph, and still produces ranks byte-identical to
// a full run. Resuming from the prior *final* ranks cannot do that (a
// different start vector changes every float32 accumulation), so the
// retained entry keeps the full per-iteration trajectory and IncPR
// recomputes only the "delta cone": the set of vertices whose value at
// iteration t can differ from the retained trajectory.
//
//   - T (structural targets): every vertex that gained or lost an
//     in-edge, i.e. the union of old and new out-neighborhoods of each
//     op source. Their accumulation term list changed, so they must be
//     recomputed every iteration.
//   - C_1 = T; C_t = out_new(VD_{t-1}) ∪ T, where VD_{t-1} ⊆ C_{t-1} is
//     the set of candidates whose recomputed value actually deviated
//     (bitwise) from the retained trajectory at t-1.
//
// For v outside C_t, every in-neighbor u had cur[u] bitwise equal to
// traj[t-1][u] (u not in VD_{t-1}) and v's term list is unchanged (v not
// in T), so v's full-run value at t is bitwise traj[t][v] — no work
// needed. For v in C_t, the marked pages (home/LP pages of in(C_t))
// stream in the same relative order as a full scan, so v's float32 adds
// replay in the full run's exact order. Induction over t gives bitwise
// equality at every iteration, hence at the end.
type IncPR struct {
	g       *slottedpage.Graph
	rev     kernels.RevCSR
	lpDeg   map[uint64]int
	damping float64
	iters   int
	base    float32
	cost    incCost
	traj    [][]float32

	tlist []uint64 // structural targets, ascending

	// plan state
	cand     *bitset.Set
	candList []uint64
	cur      []float32
	newTraj  [][]float32
	lastVD   []uint64
	t        int
	pending  bool
	done     bool
	result   []float32

	// Seeds is the size of the structural target set (trace/metrics).
	Seeds int
}

type incPRState struct {
	acc  []float32
	base float32
}

func (s *incPRState) WABytes() int64 { return int64(len(s.acc)) * 4 }
func (s *incPRState) RABytes() int64 { return 0 }
func (s *incPRState) Clone() kernels.State {
	c := &incPRState{acc: make([]float32, len(s.acc)), base: s.base}
	copy(c.acc, s.acc)
	return c
}

// PlanPageRank builds an incremental PageRank kernel, or reports a
// fallback reason. Vertex growth falls back: it changes the teleport base
// (1-df)/|V| and the uniform start vector, deviating every vertex at once.
func PlanPageRank(g *slottedpage.Graph, e *Entry, d Delta, df float64, iterations int) (*IncPR, string) {
	if e.Kind != KindPageRank {
		return nil, "wrong-kind"
	}
	if e.Damping != df || e.Iterations != iterations {
		return nil, "params-mismatch"
	}
	n := g.NumVertices()
	if len(e.Traj) != iterations+1 || len(e.Traj[0]) == 0 {
		return nil, "trajectory-shape"
	}
	if uint64(len(e.Traj[0])) != n {
		return nil, "vertex-growth"
	}
	if len(d.Ops) > 0 && d.OldNumVertices != n {
		return nil, "vertex-growth"
	}
	// Structural targets: old ∪ new out-neighborhoods of every op source.
	tset := bitset.New(int(n))
	for _, op := range d.Ops {
		for _, dst := range d.OldAdj[op.Src] {
			if dst < n {
				tset.Set(int(dst))
			}
		}
		if op.Src < n {
			g.NeighborsOf(op.Src, func(dst uint64) { tset.Set(int(dst)) })
		}
	}
	var tlist []uint64
	tset.ForEach(func(i int) { tlist = append(tlist, uint64(i)) })
	k := &IncPR{
		g:       g,
		rev:     kernels.NewRevCSR(g),
		lpDeg:   kernels.LPDegrees(g),
		damping: df,
		iters:   iterations,
		base:    float32((1 - df) / float64(n)),
		cost:    incCost{lane: 160, slot: 50},
		traj:    e.Traj,
		tlist:   tlist,
		cand:    bitset.New(int(n)),
		Seeds:   len(tlist),
	}
	return k, ""
}

// Name implements Kernel.
func (k *IncPR) Name() string { return "IncPR" }

// Class implements Kernel: the delta cone streams only affected pages, so
// incremental PageRank runs as a frontier (BFS-like) kernel even though
// the full algorithm is a full-scan one.
func (k *IncPR) Class() kernels.Class { return kernels.BFSLike }

// RAPerVertex implements Kernel: the input vector is kernel-resident.
func (k *IncPR) RAPerVertex() int64 { return 0 }

// NewState implements Kernel.
func (k *IncPR) NewState() kernels.State {
	return &incPRState{acc: make([]float32, k.g.NumVertices()), base: k.base}
}

// Init implements Kernel: iteration 1 starts from the retained uniform
// vector (traj[0]); plan bookkeeping resets so a kernel is reusable.
func (k *IncPR) Init(st kernels.State, _ uint64) {
	s := st.(*incPRState)
	for i := range s.acc {
		s.acc[i] = k.base
	}
	k.cur = k.traj[0]
	k.newTraj = append(k.newTraj[:0], k.traj[0])
	k.lastVD = nil
	k.t = 1
	k.pending = false
	k.done = false
	k.result = nil
}

// BeginLevel implements Kernel.
func (k *IncPR) BeginLevel([]kernels.State, int32) {}

// PlanLevel implements FrontierKernel: close out the iteration whose
// superstep just ran (fold accumulators into a patched trajectory level,
// detect deviations), then set up the next iteration's candidate set and
// page frontier. Iterations whose candidate pages are empty — or whose
// candidate set is empty, meaning the rest of the trajectory is reused
// verbatim — are resolved here without streaming anything.
func (k *IncPR) PlanLevel(sts []kernels.State, _ int32, next *bitset.Set) kernels.Direction {
	if k.pending {
		k.finishIteration(sts)
	}
	for {
		next.Reset()
		if k.t > k.iters {
			if !k.done {
				k.result = k.cur
				k.done = true
			}
			return kernels.DirNone
		}
		// Candidates: structural targets every iteration, plus everything
		// downstream of the previous iteration's deviations.
		k.cand.Reset()
		for _, v := range k.tlist {
			k.cand.Set(int(v))
		}
		for _, u := range k.lastVD {
			k.g.NeighborsOf(u, func(dst uint64) { k.cand.Set(int(dst)) })
		}
		k.candList = k.candList[:0]
		k.cand.ForEach(func(i int) { k.candList = append(k.candList, uint64(i)) })
		if len(k.candList) == 0 {
			// No deviation can occur from here on: the remaining levels of
			// the retained trajectory are the answer, bitwise.
			for ; k.t <= k.iters; k.t++ {
				k.cur = k.traj[k.t]
				k.newTraj = append(k.newTraj, k.traj[k.t])
			}
			continue
		}
		for _, st := range sts {
			s := st.(*incPRState)
			for _, v := range k.candList {
				s.acc[v] = k.base
			}
		}
		for _, v := range k.candList {
			for _, u := range k.rev.In(v) {
				kernels.MarkVertexPages(k.g, uint64(u), next, true)
			}
		}
		if !next.Any() {
			// Candidates with no in-neighbors: their value is exactly the
			// teleport base, already in acc. Close the iteration inline.
			k.finishIteration(sts)
			continue
		}
		k.pending = true
		return kernels.DirPush
	}
}

// finishIteration folds the candidates' accumulators into a patched copy
// of the retained trajectory level and records which candidates deviated.
func (k *IncPR) finishIteration(sts []kernels.State) {
	s := sts[0].(*incPRState)
	newvals := append([]float32(nil), k.traj[k.t]...)
	k.lastVD = k.lastVD[:0]
	for _, v := range k.candList {
		nv := s.acc[v]
		newvals[v] = nv
		if math.Float32bits(nv) != math.Float32bits(k.traj[k.t][v]) {
			k.lastVD = append(k.lastVD, v)
		}
	}
	k.cur = newvals
	k.newTraj = append(k.newTraj, newvals)
	k.t++
	k.pending = false
}

// RunSP scatters contributions from every slot of a marked page into
// candidate accumulators, reading the patched input vector.
func (k *IncPR) RunSP(a *kernels.Args) kernels.Result {
	s := a.State.(*incPRState)
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	n := a.Page.NumSlots()
	var res kernels.Result
	var edges int64
	df := float32(k.damping)
	for slot, pr := range k.cur[dec.StartVID(a.PID):][:n] {
		pos, end, deg := dec.Record(buf, slot)
		edges += int64(deg)
		if deg == 0 {
			continue
		}
		k.scatter(a, s, pos, end, df*pr/float32(deg), &res)
	}
	res.Edges = edges
	res.Cycles = k.cost.cycles(int64(n), edges)
	res.Active = true
	return res
}

// RunLP scatters one large vertex's page-local adjacency, dividing by the
// vertex's total degree.
func (k *IncPR) RunLP(a *kernels.Args) kernels.Result {
	s := a.State.(*incPRState)
	dec := a.Graph.Decoder()
	vid := dec.StartVID(a.PID)
	pos, end, deg := dec.Record(a.Page.Bytes(), 0)
	var res kernels.Result
	k.scatter(a, s, pos, end, float32(k.damping)*k.cur[vid]/float32(k.lpDeg[vid]), &res)
	res.Edges = int64(deg)
	res.Cycles = k.cost.cycles(1, int64(deg))
	res.Active = true
	return res
}

func (k *IncPR) scatter(a *kernels.Args, s *incPRState, pos, end int, contrib float32, res *kernels.Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	for w := dec.Width(); pos < end; pos += w {
		nvid, _ := dec.VID(buf, pos)
		if !k.cand.Get(int(nvid)) {
			continue
		}
		if nvid < a.OwnedLo || nvid >= a.OwnedHi {
			continue
		}
		s.acc[nvid] += contrib
		res.Updates++
	}
}

// MergeStates implements Kernel. IncPR is planned only for single-GPU
// configurations (the service gates on that), so there is never a second
// replica to merge; the copy keeps hypothetical replicas consistent.
func (k *IncPR) MergeStates(sts []kernels.State) {
	if len(sts) < 2 {
		return
	}
	base := sts[0].(*incPRState)
	for _, other := range sts[1:] {
		copy(other.(*incPRState).acc, base.acc)
	}
}

// EndIteration implements Kernel: iteration advance happens in PlanLevel.
func (k *IncPR) EndIteration([]kernels.State, bool) bool { return false }

// Ranks exposes the final rank vector of a finished run.
func (k *IncPR) Ranks(kernels.State) []float32 { return k.result }

// Trajectory exposes the patched per-iteration trajectory of a finished
// run, suitable for retaining as the next epoch's entry. Unpatched levels
// alias the prior entry's slices; entries are immutable so sharing is
// safe.
func (k *IncPR) Trajectory() [][]float32 { return k.newTraj }

// RecordingPageRank wraps the full PageRank kernel and snapshots the rank
// vector after every iteration, building the trajectory a later
// incremental run resumes from. Only EndIteration is intercepted.
type RecordingPageRank struct {
	*kernels.PageRank
	Traj [][]float32
}

// NewRecordingPageRank builds the wrapper; traj[0] is the uniform start
// vector, computed exactly as the kernel's Init computes it.
func NewRecordingPageRank(g *slottedpage.Graph, df float64, iterations int) *RecordingPageRank {
	n := g.NumVertices()
	uniform := float32(1 / float64(n))
	t0 := make([]float32, n)
	for i := range t0 {
		t0[i] = uniform
	}
	return &RecordingPageRank{
		PageRank: kernels.NewPageRank(g, df, iterations),
		Traj:     [][]float32{t0},
	}
}

// EndIteration implements Kernel: snapshot the post-swap rank vector
// (bitwise, the value the full run would report if it stopped here).
func (k *RecordingPageRank) EndIteration(sts []kernels.State, active bool) bool {
	more := k.PageRank.EndIteration(sts, active)
	k.Traj = append(k.Traj, append([]float32(nil), k.PageRank.Ranks(sts[0])...))
	return more
}
