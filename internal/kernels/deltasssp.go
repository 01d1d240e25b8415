package kernels

import (
	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// ssspDelta is the bucket width of DeltaSSSP. Weights span [1, 16]
// (kernels.Weight), so delta = 8 keeps buckets a couple of relaxation
// rounds deep without degenerating into Dijkstra (delta→0, one vertex per
// round) or Bellman-Ford (delta→∞, everything every round).
const ssspDelta = 8

// DeltaSSSP is delta-stepping single-source shortest paths as a
// FrontierKernel: pending vertices sit in distance buckets of width
// ssspDelta, and each superstep relaxes exactly the lowest non-empty
// bucket. The plan snapshots the distance vector before the phase, and
// every relaxation reads source distances from that snapshot: the frontier
// flags and base distances are frozen at plan time, so which vertices a
// phase relaxes — and therefore its pages, lanes and simulated cycles — is
// decided before its first page kernel runs, where plain SSSP's frontier
// check (active == level) can be re-marked by an earlier page of the same
// phase. Improvements found mid-phase simply re-pend the vertex for a later
// bucket round. The result is bitwise equal to plain SSSP's fixpoint: both
// converge to the same minimum over float32 path sums evaluated source→v.
type DeltaSSSP struct {
	g    *slottedpage.Graph
	cost costParams
	// frontier flags this level's bucket members and base snapshots the
	// distance vector; both are written by PlanLevel between supersteps
	// and read-only during the phase.
	frontier []bool
	base     []float32
}

// NewDeltaSSSP returns a delta-stepping SSSP kernel over g.
func NewDeltaSSSP(g *slottedpage.Graph) *DeltaSSSP {
	return &DeltaSSSP{g: g, cost: costParams{laneCycles: 50, slotCycles: 12}}
}

// deltaState is the attribute data: tentative distances plus a pending flag
// (the vertex improved and has not been bucket-relaxed since).
type deltaState struct {
	dist []float32
	pend []bool
}

func (s *deltaState) WABytes() int64 { return int64(len(s.dist)) * (4 + 1) }
func (s *deltaState) RABytes() int64 { return 0 }
func (s *deltaState) Clone() State {
	c := &deltaState{dist: make([]float32, len(s.dist)), pend: make([]bool, len(s.pend))}
	copy(c.dist, s.dist)
	copy(c.pend, s.pend)
	return c
}

// Name implements Kernel.
func (k *DeltaSSSP) Name() string { return "SSSP-delta" }

// Class implements Kernel.
func (k *DeltaSSSP) Class() Class { return BFSLike }

// RAPerVertex implements Kernel.
func (k *DeltaSSSP) RAPerVertex() int64 { return 0 }

// NewState implements Kernel.
func (k *DeltaSSSP) NewState() State {
	n := k.g.NumVertices()
	return &deltaState{dist: make([]float32, n), pend: make([]bool, n)}
}

// Init implements Kernel.
func (k *DeltaSSSP) Init(st State, source uint64) {
	s := st.(*deltaState)
	for i := range s.dist {
		s.dist[i] = inf
		s.pend[i] = false
	}
	s.dist[source] = 0
	s.pend[source] = true
}

// BeginLevel implements Kernel (PlanLevel carries the per-level setup).
func (k *DeltaSSSP) BeginLevel([]State, int32) {}

// PlanLevel implements FrontierKernel: pick the lowest non-empty distance
// bucket, freeze it as this level's frontier (clearing those pending flags
// in every replica), snapshot distances, and mark the frontier's pages.
// All relaxations push out-edges; DirPull never applies to SSSP here.
func (k *DeltaSSSP) PlanLevel(sts []State, level int32, next *bitset.Set) Direction {
	s := sts[0].(*deltaState)
	next.Reset()
	minBucket := int64(-1)
	for v, p := range s.pend {
		if !p {
			continue
		}
		b := int64(s.dist[v] / ssspDelta)
		if minBucket < 0 || b < minBucket {
			minBucket = b
		}
	}
	if minBucket < 0 {
		return DirNone
	}
	if k.frontier == nil {
		k.frontier = make([]bool, len(s.dist))
		k.base = make([]float32, len(s.dist))
	}
	copy(k.base, s.dist)
	for v := range k.frontier {
		on := s.pend[v] && int64(s.dist[v]/ssspDelta) == minBucket
		k.frontier[v] = on
		if on {
			for _, st := range sts {
				st.(*deltaState).pend[v] = false
			}
			markVertexPages(k.g, uint64(v), next, true)
		}
	}
	return DirPush
}

// RunSP relaxes the out-edges of the page's frontier vertices against the
// plan's distance snapshot.
func (k *DeltaSSSP) RunSP(a *Args) Result {
	s := a.State.(*deltaState)
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	n := a.Page.NumSlots()
	start := dec.StartVID(a.PID)
	var lanes laneAcc
	var res Result
	for slot, on := range k.frontier[start:][:n] {
		if !on {
			continue
		}
		pos, end, deg := dec.Record(buf, slot)
		lanes.add(deg)
		k.relax(a, s, start+uint64(slot), pos, end, &res)
	}
	res.Edges = lanes.edges
	res.Cycles = k.cost.cycles(int64(n), &lanes, a.Tech)
	return res
}

// RunLP relaxes the page-local portion of one frontier vertex's adjacency.
func (k *DeltaSSSP) RunLP(a *Args) Result {
	s := a.State.(*deltaState)
	dec := a.Graph.Decoder()
	vid := dec.StartVID(a.PID)
	var lanes laneAcc
	var res Result
	if k.frontier[vid] {
		pos, end, deg := dec.Record(a.Page.Bytes(), 0)
		lanes.add(deg)
		k.relax(a, s, vid, pos, end, &res)
	}
	res.Edges = lanes.edges
	res.Cycles = k.cost.cycles(1, &lanes, a.Tech)
	return res
}

// relax proposes nd = base[vid] + w(vid, n) for each owned out-neighbor in
// the record at [pos, end), from the snapshot, and accepts it against the
// live distance.
func (k *DeltaSSSP) relax(a *Args, s *deltaState, vid uint64, pos, end int, res *Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	base := k.base[vid]
	for w := dec.Width(); pos < end; pos += w {
		nvid, _ := dec.VID(buf, pos)
		if !a.owns(nvid) {
			continue
		}
		nd := base + Weight(vid, nvid)
		if nd < s.dist[nvid] {
			s.dist[nvid] = nd
			s.pend[nvid] = true
			res.Updates++
			res.Active = true
		}
	}
}

// MergeStates implements Kernel: the shorter distance wins and carries its
// pending flag; at equal distance the pending flags union, so a replica
// that improved a vertex to a distance another replica already held cannot
// lose the re-relaxation.
func (k *DeltaSSSP) MergeStates(sts []State) {
	if len(sts) < 2 {
		return
	}
	base := sts[0].(*deltaState)
	for _, other := range sts[1:] {
		o := other.(*deltaState)
		for v := range base.dist {
			switch {
			case o.dist[v] < base.dist[v]:
				base.dist[v] = o.dist[v]
				base.pend[v] = o.pend[v]
			case o.dist[v] == base.dist[v] && o.pend[v]:
				base.pend[v] = true
			}
		}
	}
	for _, other := range sts[1:] {
		o := other.(*deltaState)
		copy(o.dist, base.dist)
		copy(o.pend, base.pend)
	}
}

// EndIteration implements Kernel: termination belongs to PlanLevel (no
// pending vertex in any bucket).
func (k *DeltaSSSP) EndIteration([]State, bool) bool { return false }

// Distances exposes the result vector; unreachable vertices hold +Inf
// (math.MaxFloat32).
func (k *DeltaSSSP) Distances(st State) []float32 { return st.(*deltaState).dist }
