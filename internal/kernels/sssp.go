package kernels

import (
	"math"
	"slices"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// SSSP implements single-source shortest paths as a frontier-driven
// Bellman-Ford, the BFS-like formulation the paper's §3.3 groups it under:
// a vertex whose distance improved at level L relaxes its out-edges at
// level L+1, and only the pages holding active vertices stream.
//
// Edge weights come from kernels.Weight (deterministic, derived from the
// endpoints) because the slotted page format carries topology only.
//
// The frontier is two bit sets: front[L&1] holds level L's, and
// front[(L+1)&1] collects the vertices that improve during level L. A
// relaxation can improve a vertex that is *on the current frontier*: it
// moves the vertex to the next set (dist keeps improving), so a later
// page's frontier check — and with it the page's simulated cycle/edge
// counts — depends on earlier pages' same-phase writes. It is the one
// SSSP: the served kernel and the reference oracle. Freezing each
// level's frontier to the lowest delta-stepping distance bucket reaches the
// same distances over the same pages in 1.8× the levels, at 1.2–1.5× the
// host wall (EXPERIMENTS.md, "sssp").
type SSSP struct {
	g    *slottedpage.Graph
	cost costParams
}

// NewSSSP returns an SSSP kernel over g.
func NewSSSP(g *slottedpage.Graph) *SSSP {
	return &SSSP{g: g, cost: costParams{laneCycles: 50, slotCycles: 12}}
}

const inf = float32(math.MaxFloat32)

type ssspState struct {
	dist  []float32
	front [2]*bitset.Set // front[L&1]: level L's frontier; front[(L+1)&1]: its improvements
}

func (s *ssspState) WABytes() int64 { return int64(len(s.dist))*4 + 2*s.front[0].Bytes() }
func (s *ssspState) Clone() State {
	return &ssspState{dist: slices.Clone(s.dist), front: [2]*bitset.Set{s.front[0].Clone(), s.front[1].Clone()}}
}

// NewState implements Kernel.
func (k *SSSP) NewState() State {
	n := int(k.g.NumVertices())
	return &ssspState{dist: make([]float32, n), front: [2]*bitset.Set{bitset.New(n), bitset.New(n)}}
}

// Init implements Kernel.
func (k *SSSP) Init(st State, source uint64) {
	s := st.(*ssspState)
	for i := range s.dist {
		s.dist[i] = inf
	}
	s.front[0].Reset()
	s.front[1].Reset()
	s.dist[source] = 0
	s.front[0].Set(int(source))
}

// BeginLevel is the optional hook kernels.BeginLevel runs: empty the set
// that collects the level's improvements.
func (k *SSSP) BeginLevel(sts []State, level int32) {
	for _, st := range sts {
		st.(*ssspState).front[(level+1)&1].Reset()
	}
}

// PlanLevel implements FrontierKernel: level L streams the pages holding a
// vertex of front[L&1].
func (k *SSSP) PlanLevel(sts []State, level int32, next *bitset.Set) Direction {
	pagesInSet(k.g, sts[0].(*ssspState).front[level&1], next)
	return DirNone
}

// Run is SSSP's K_SP and K_LP (Appendix D): relax the out-edges of every
// vertex in the page that improved at the current level (on a large page,
// the page's part of one vertex's out-edges).
func (k *SSSP) Run(a *Args) Result {
	s := a.State.(*ssspState)
	cur, next := s.front[a.Level&1], s.front[(a.Level+1)&1]
	var res Result
	w := WalkPage(a)
	for SeekSet(&w, cur) {
		pos, end, _ := w.Record()
		res.Add(k.relax(a, s.dist, cur, next, w.V, pos, end))
	}
	return k.cost.done(a, &w, res)
}

// relax lowers the distances of vid's neighbors in the record at [pos,
// end), moving each lowered one from cur to next, and returns how many it
// lowered.
func (k *SSSP) relax(a *Args, dist []float32, cur, next *bitset.Set, vid uint64, pos, end int) (updates int64) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	ents, w := dec.Entries(), dec.Width()
	base, hu := dist[vid], weightSrc(vid)
	if sv, ok := ents.Words(); ok {
		for b := buf[pos:end]; len(b) >= 4; b = b[4:] {
			nvid, _ := slottedpage.WordVID(sv, b)
			if !a.owns(nvid) {
				continue
			}
			nd := base + weightTo(hu, nvid)
			if nd < dist[nvid] {
				dist[nvid] = nd
				next.Set(int(nvid))
				cur.Clear(int(nvid))
				updates++
			}
		}
		return updates
	}
	for ; pos < end; pos += w {
		nvid, _ := ents.VID(buf, pos)
		if !a.owns(nvid) {
			continue
		}
		nd := base + weightTo(hu, nvid)
		if nd < dist[nvid] {
			dist[nvid] = nd
			next.Set(int(nvid))
			cur.Clear(int(nvid))
			updates++
		}
	}
	return updates
}

// MergeStates implements Kernel: the shorter distance wins and brings its
// frontier bits along, so the owning replica's frontier survives the merge;
// on a tie the bits OR. Only the next set outlives BeginLevel, but both
// merge, so the replicas are identical again.
func (k *SSSP) MergeStates(sts []State) {
	if len(sts) < 2 {
		return
	}
	base := sts[0].(*ssspState)
	for _, other := range sts[1:] {
		o := other.(*ssspState)
		for v, od := range o.dist {
			bd := base.dist[v]
			if od > bd {
				continue
			}
			base.dist[v] = od
			for i, f := range base.front {
				if od < bd {
					f.Clear(v)
				}
				if o.front[i].Get(v) {
					f.Set(v)
				}
			}
		}
	}
	for _, other := range sts[1:] {
		o := other.(*ssspState)
		copy(o.dist, base.dist)
		for i, f := range o.front {
			f.Reset()
			f.Or(base.front[i])
		}
	}
}

// Distances exposes the result vector; unreachable vertices hold +Inf
// (math.MaxFloat32).
func (k *SSSP) Distances(st State) []float32 { return st.(*ssspState).dist }
