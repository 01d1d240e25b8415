package kernels

import "repro/internal/slottedpage"

// PageRank implements the paper's K_PR_SP and K_PR_LP kernels (Algorithms 4
// and 5). Per the paper's split, nextPR is the read/write attribute vector
// kept in device memory (WA) and prevPR is the read-only vector streamed
// page-by-page alongside topology (RA). Both are float32, matching Table 4's
// 4 bytes/vertex WA footprint.
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
	prevPR []float32 // RA: streamed per page
	nextPR []float32 // WA: device-resident, atomically accumulated
	base   float32   // (1-df)/|V|, nextPR's per-iteration reset value
	iter   int32
}

func (s *prState) WABytes() int64 { return int64(len(s.nextPR)) * 4 }
func (s *prState) Clone() State {
	c := &prState{
		prevPR: make([]float32, len(s.prevPR)),
		nextPR: make([]float32, len(s.nextPR)),
		base:   s.base,
		iter:   s.iter,
	}
	copy(c.prevPR, s.prevPR)
	copy(c.nextPR, s.nextPR)
	return c
}

// Class implements Kernel: PageRank scans the whole topology per iteration.
func (k *PageRank) Class() Class { return PageRankLike }

// RAPerVertex implements Kernel: 4 bytes of prevPR accompany each vertex.
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

// BeginLevel implements Kernel (no per-iteration preparation).
func (k *PageRank) BeginLevel([]State, int32) {}

// Run implements K_PR_SP and K_PR_LP (Algorithms 4 and 5): a frontier-free
// full scan; a warp takes one slot and atomically adds df*prevPR[v]/deg(v)
// to every out-neighbor's nextPR. A large page holds part of one vertex's
// adjacency, so its contribution divides by the vertex's *total* degree, not
// the page-local count.
func (k *PageRank) Run(a *Args) Result {
	s := a.State.(*prState)
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	n := a.Page.NumSlots()
	start := dec.StartVID(a.PID)
	large := a.Graph.Kind(a.PID) == slottedpage.LargePage
	var lanes laneAcc
	var res Result
	df := float32(k.damping)
	for slot, pr := range s.prevPR[start:][:n] {
		pos, end, deg := dec.Record(buf, slot)
		lanes.add(deg)
		if deg == 0 {
			continue
		}
		if large {
			deg = k.lpDeg[start]
		}
		k.scatter(a, s, pos, end, df*pr/float32(deg), &res)
	}
	res.Edges = lanes.edges
	res.Cycles = k.cost.cycles(int64(n), &lanes, a.Tech)
	res.Active = true
	return res
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
	if len(sts) < 2 {
		return
	}
	merged := sts[0].(*prState)
	for _, other := range sts[1:] {
		o := other.(*prState)
		for v := range merged.nextPR {
			merged.nextPR[v] += o.nextPR[v] - o.base
		}
	}
	for _, other := range sts[1:] {
		o := other.(*prState)
		copy(o.nextPR, merged.nextPR)
	}
}

// EndIteration implements Kernel: nextPR becomes prevPR, nextPR resets to
// the teleport base, and the run continues until the iteration budget is
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
