package kernels

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// BC implements single-source betweenness centrality (Brandes) as the paper
// evaluates it in Appendix D ("the single node mode"): a forward
// level-synchronous traversal counting shortest paths (sigma), then a
// backward sweep over the forward levels, deepest first, accumulating
// dependencies (delta). Both phases are BFS-like: only pages holding the
// level's vertices stream, and PlanLevel plans a level for either phase.
type BC struct {
	g    *slottedpage.Graph
	cost costParams
}

// NewBC returns a betweenness-centrality kernel over g.
func NewBC(g *slottedpage.Graph) *BC {
	return &BC{g: g, cost: costParams{laneCycles: 55, slotCycles: 15}}
}

type bcState struct {
	dist  []int16
	sigma []float64
	delta []float64
	// Snapshots taken at BeginLevel allow the additive sigma/delta merges
	// Strategy-P needs: replicas start a level identical, so the merged
	// value is snapshot + sum of per-replica deltas.
	snapSigma []float64
	snapDelta []float64
}

func (s *bcState) WABytes() int64 { return int64(len(s.dist)) * (2 + 8 + 8) }
func (s *bcState) Clone() State {
	return &bcState{
		dist:      slices.Clone(s.dist),
		sigma:     slices.Clone(s.sigma),
		delta:     slices.Clone(s.delta),
		snapSigma: slices.Clone(s.snapSigma),
		snapDelta: slices.Clone(s.snapDelta),
	}
}
func bcDist(st State) []int16    { return st.(*bcState).dist }
func bcSigma(st State) []float64 { return st.(*bcState).sigma }
func bcDelta(st State) []float64 { return st.(*bcState).delta }

// NewState implements Kernel.
func (k *BC) NewState() State {
	n := k.g.NumVertices()
	return &bcState{
		dist:  make([]int16, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
	}
}

// Init implements Kernel.
func (k *BC) Init(st State, source uint64) {
	s := st.(*bcState)
	for i := range s.dist {
		s.dist[i] = unvisited
		s.sigma[i] = 0
		s.delta[i] = 0
	}
	s.dist[source] = 0
	s.sigma[source] = 1
}

// BeginLevel is the optional hook kernels.BeginLevel runs: with multiple
// replicas, snapshot the additive vectors so MergeStates can sum
// per-replica contributions.
func (k *BC) BeginLevel(sts []State, _ int32) {
	if len(sts) < 2 {
		return
	}
	for _, st := range sts {
		s := st.(*bcState)
		s.snapSigma = append(s.snapSigma[:0], s.sigma...)
		s.snapDelta = append(s.snapDelta[:0], s.delta...)
	}
}

// PlanLevel implements FrontierKernel: a level of either sweep streams the
// pages holding a vertex at that distance (final once set).
func (k *BC) PlanLevel(sts []State, level int32, next *bitset.Set) Direction {
	pagesAtLevel(k.g, bcDist(sts[0]), int16(level), next)
	return DirNone
}

// Run is BC's forward K_SP and K_LP (Appendix D): discover neighbors and
// accumulate shortest-path counts across frontier edges.
func (k *BC) Run(a *Args) Result {
	s := a.State.(*bcState)
	var res Result
	level := int16(a.Level)
	w := WalkPage(a)
	for Seek(&w, s.dist, level) {
		pos, end, _ := w.Record()
		res.Add(k.forward(a, s, w.V, pos, end, level))
	}
	return k.cost.done(a, &w, res)
}

// forward discovers vid's unvisited neighbors in the record at [pos, end)
// and adds vid's path count to each one a level deeper. It returns how
// many counts it added.
func (k *BC) forward(a *Args, s *bcState, vid uint64, pos, end int, level int16) (updates int64) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	ents, w := dec.Entries(), dec.Width()
	for ; pos < end; pos += w {
		nvid, _ := ents.VID(buf, pos)
		if !a.owns(nvid) {
			continue
		}
		if s.dist[nvid] == unvisited {
			s.dist[nvid] = level + 1
		}
		if s.dist[nvid] == level+1 {
			s.sigma[nvid] += s.sigma[vid]
			updates++
		}
	}
	return updates
}

// RunBack is BC's backward K_SP and K_LP: vertices at the current level pull
// dependencies from their successors one level deeper (Brandes'
// delta(v) = sum over successors w of sigma(v)/sigma(w) * (1 + delta(w))).
func (k *BC) RunBack(a *Args) Result {
	s := a.State.(*bcState)
	var res Result
	level := int16(a.Level)
	w := WalkPage(a)
	for Seek(&w, s.dist, level) {
		if !a.owns(w.V) {
			continue
		}
		pos, end, _ := w.Record()
		res.Add(k.backward(a, s, w.V, pos, end, level))
	}
	return k.cost.done(a, &w, res)
}

// backward pulls vid's dependency from its successors in the record at
// [pos, end) and returns how many it pulled from.
func (k *BC) backward(a *Args, s *bcState, vid uint64, pos, end int, level int16) (updates int64) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	ents, w := dec.Entries(), dec.Width()
	for ; pos < end; pos += w {
		nvid, _ := ents.VID(buf, pos)
		if s.dist[nvid] == level+1 && s.sigma[nvid] > 0 {
			s.delta[vid] += s.sigma[vid] / s.sigma[nvid] * (1 + s.delta[nvid])
			updates++
		}
	}
	return updates
}

// MergeStates implements Kernel: distances merge by MinLevel; sigma and
// delta additively, relative to the BeginLevel snapshots (the replicas
// start a level identical, so replica 0's snapshot is every replica's).
func (k *BC) MergeStates(sts []State) {
	snap := sts[0].(*bcState)
	Merge(sts, bcDist, MinLevel)
	Merge(sts, bcSigma, func(v int, b, o float64) float64 { return b + (o - snap.snapSigma[v]) })
	Merge(sts, bcDelta, func(v int, b, o float64) float64 { return b + (o - snap.snapDelta[v]) })
}

// Centrality exposes the dependency scores; the source's own score is zero
// by definition.
func (k *BC) Centrality(st State, source uint64) []float64 {
	s := st.(*bcState)
	out := append([]float64(nil), s.delta...)
	out[source] = 0
	return out
}
