package kernels

import (
	"slices"

	"repro/internal/slottedpage"
)

// PageRank implements the paper's K_PR_SP and K_PR_LP kernels (Algorithms 4
// and 5). Per the paper's split, nextPR is the read/write attribute vector
// kept in device memory (WA) and prevPR is the read-only vector (RA), which
// streams page by page alongside topology, or stays resident beside WA on a
// one-GPU device with room for it (the engine decides; see core.Engine.newRun).
// Both are float32, matching Table 4's 4 bytes/vertex WA footprint.
type PageRank struct {
	g          *slottedpage.Graph
	damping    float64
	iterations int32
	lpDeg      map[uint64]int
	cost       costParams
}

// NewPageRank returns a PageRank kernel running the given iteration count
// with damping factor df (the paper uses 10 iterations, df = 0.85).
func NewPageRank(g *slottedpage.Graph, df float64, iterations int) *PageRank {
	return &PageRank{
		g:          g,
		damping:    df,
		iterations: int32(iterations),
		lpDeg:      lpDegrees(g),
		cost:       costParams{laneCycles: 160, slotCycles: 50},
	}
}

type prState struct {
	prevPR []float32 // RA: streamed per page, or device-resident beside WA
	nextPR []float32 // WA: device-resident, atomically accumulated
	base   float32   // (1-df)/|V|, nextPR's per-iteration reset value
	iter   int32
}

func (s *prState) WABytes() int64 { return int64(len(s.nextPR)) * 4 }
func (s *prState) Clone() State {
	return &prState{prevPR: slices.Clone(s.prevPR), nextPR: slices.Clone(s.nextPR), base: s.base, iter: s.iter}
}
func prNext(st State) []float32 { return st.(*prState).nextPR }

// RAPerVertex is the optional hook kernels.RAPerVertex reads: 4 bytes of
// prevPR accompany each vertex.
func (k *PageRank) RAPerVertex() int64 { return 4 }

// NewState implements Kernel.
func (k *PageRank) NewState() State {
	n := k.g.NumVertices()
	return &prState{
		prevPR: make([]float32, n),
		nextPR: make([]float32, n),
		base:   float32((1 - k.damping) / float64(n)),
	}
}

// Init implements Kernel: uniform prior, nextPR primed with the teleport
// term (Appendix B.2).
func (k *PageRank) Init(st State, _ uint64) {
	s := st.(*prState)
	uniform := float32(1 / float64(len(s.prevPR)))
	for i := range s.prevPR {
		s.prevPR[i] = uniform
		s.nextPR[i] = s.base
	}
	s.iter = 0
}

// Run implements K_PR_SP and K_PR_LP (Algorithms 4 and 5): a frontier-free
// full scan; a warp takes one slot and atomically adds df*prevPR[v]/deg(v)
// to every out-neighbor's nextPR. A large page holds part of one vertex's
// adjacency, so its contribution divides by the vertex's *total* degree, not
// the page-local count.
func (k *PageRank) Run(a *Args) Result {
	s := a.State.(*prState)
	large := a.Graph.Kind(a.PID) == slottedpage.LargePage
	res := Result{Active: true}
	df := float32(k.damping)
	w := WalkPage(a)
	for w.Next() {
		pos, end, deg := w.Record()
		if deg == 0 {
			continue
		}
		if large {
			deg = k.lpDeg[w.V]
		}
		k.scatter(a, s, pos, end, df*s.prevPR[w.V]/float32(deg), &res)
	}
	return k.cost.done(a, &w, res)
}

// scatter performs the atomicAdd loop over the record at [pos, end).
func (k *PageRank) scatter(a *Args, s *prState, pos, end int, contrib float32, res *Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	for w := dec.Width(); pos < end; pos += w {
		nvid, _ := dec.VID(buf, pos)
		if !a.owns(nvid) {
			continue
		}
		s.nextPR[nvid] += contrib
		res.Updates++
	}
}

// MergeStates implements Kernel: every replica started the superstep at the
// same nextPR (the teleport base after EndIteration), so the merged value
// is base plus the sum of each replica's accumulated contributions.
func (k *PageRank) MergeStates(sts []State) {
	base := sts[0].(*prState).base
	Merge(sts, prNext, func(_ int, b, o float32) float32 { return b + (o - base) })
}

// EndIteration implements ScanKernel: nextPR becomes prevPR, nextPR resets
// to the teleport base, and the run continues until the iteration budget is
// spent (paper §3.4's note on repeating Lines 13-31).
func (k *PageRank) EndIteration(sts []State, _ bool) bool {
	for _, st := range sts {
		s := st.(*prState)
		copy(s.prevPR, s.nextPR)
		for i := range s.nextPR {
			s.nextPR[i] = s.base
		}
		s.iter++
	}
	return sts[0].(*prState).iter < k.iterations
}

// Ranks exposes the final PageRank vector (prevPR after the last swap).
func (k *PageRank) Ranks(st State) []float32 { return st.(*prState).prevPR }
