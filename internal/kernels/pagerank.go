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
//
// Random Walk with Restart (§3.3's PageRank-like class) is the same kernel
// with the teleport mass on a single query vertex (NewRWR): the walk share,
// the teleport term and the vertices it and the starting mass sit on differ.
type PageRank struct {
	g          *slottedpage.Graph
	walk       float32 // the share of a rank that walks its out-edges
	base       float32 // the teleport term: (1-df)/|V|, or RWR's c
	restart    bool    // RWR: the teleport term is the run's source's alone
	iterations int32
	lpDeg      map[uint64]int
	cost       costParams
}

// NewPageRank returns a PageRank kernel running the given iteration count
// with damping factor df (the paper uses 10 iterations, df = 0.85).
func NewPageRank(g *slottedpage.Graph, df float64, iterations int) *PageRank {
	return newPageRank(g, float32(df), float32((1-df)/float64(g.NumVertices())), false, iterations)
}

// NewRWR returns a Random Walk with Restart kernel with restart probability
// c (typically 0.15) running the given iteration count: all mass starts at
// the run's source, a share 1-c of each rank walks, and c returns to the
// source every iteration.
func NewRWR(g *slottedpage.Graph, c float64, iterations int) *PageRank {
	return newPageRank(g, float32(1-c), float32(c), true, iterations)
}

func newPageRank(g *slottedpage.Graph, walk, base float32, restart bool, iterations int) *PageRank {
	return &PageRank{
		g:          g,
		walk:       walk,
		base:       base,
		restart:    restart,
		iterations: int32(iterations),
		lpDeg:      lpDegrees(g),
		cost:       costParams{laneCycles: 160, slotCycles: 50},
	}
}

type prState struct {
	prevPR []float32 // RA: streamed per page, or device-resident beside WA
	nextPR []float32 // WA: device-resident, atomically accumulated
	src    int       // RWR's restart vertex; -1 for PageRank
	iter   int32
}

func (s *prState) WABytes() int64 { return int64(len(s.nextPR)) * 4 }
func (s *prState) Clone() State {
	return &prState{prevPR: slices.Clone(s.prevPR), nextPR: slices.Clone(s.nextPR), src: s.src, iter: s.iter}
}
func prNext(st State) []float32 { return st.(*prState).nextPR }

// reset is vertex v's teleport term, the value its nextPR starts each
// iteration at: base at every vertex, or at RWR's restart vertex only.
func (k *PageRank) reset(s *prState, v int) float32 {
	if s.src < 0 || v == s.src {
		return k.base
	}
	return 0
}

// RAPerVertex is the optional hook kernels.RAPerVertex reads: 4 bytes of
// prevPR accompany each vertex.
func (k *PageRank) RAPerVertex() int64 { return 4 }

// NewState implements Kernel.
func (k *PageRank) NewState() State {
	n := k.g.NumVertices()
	return &prState{prevPR: make([]float32, n), nextPR: make([]float32, n)}
}

// Init implements Kernel: PageRank starts from the uniform prior, RWR with
// all mass at the query vertex; nextPR is primed with the teleport term
// (Appendix B.2).
func (k *PageRank) Init(st State, source uint64) {
	s := st.(*prState)
	prior := float32(1 / float64(len(s.prevPR)))
	s.src = -1
	if k.restart {
		s.src, prior = int(source), 0
	}
	for i := range s.prevPR {
		s.prevPR[i] = prior
		s.nextPR[i] = k.reset(s, i)
	}
	if s.src >= 0 {
		s.prevPR[s.src] = 1
	}
	s.iter = 0
}

// Run implements K_PR_SP and K_PR_LP (Algorithms 4 and 5): a frontier-free
// full scan; a warp takes one slot and atomically adds walk*prevPR[v]/deg(v)
// to every out-neighbor's nextPR, skipping a vertex with no rank to give
// (RWR's unreached vertices; PageRank's ranks never reach 0). A large page
// holds part of one vertex's adjacency, so its contribution divides by the
// vertex's *total* degree, not the page-local count.
func (k *PageRank) Run(a *Args) Result {
	s := a.State.(*prState)
	large := a.Graph.Kind(a.PID) == slottedpage.LargePage
	var res Result
	walk := k.walk
	w := WalkPage(a)
	for w.Next() {
		pos, end, deg := w.Record()
		pr := s.prevPR[w.V]
		if deg == 0 || pr == 0 {
			continue
		}
		if large {
			deg = k.lpDeg[w.V]
		}
		res.Updates += k.scatter(a, s.nextPR, pos, end, walk*pr/float32(deg))
	}
	return k.cost.done(a, &w, res)
}

// scatter performs the atomicAdd loop over the record at [pos, end),
// returning how many owned neighbors it added contrib to.
func (k *PageRank) scatter(a *Args, next []float32, pos, end int, contrib float32) (updates int64) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	ents, w := dec.Entries(), dec.Width()
	if sv, ok := ents.Words(); ok {
		for b := buf[pos:end]; len(b) >= 4; b = b[4:] {
			nvid, _ := slottedpage.WordVID(sv, b)
			if !a.owns(nvid) {
				continue
			}
			next[nvid] += contrib
			updates++
		}
		return updates
	}
	for ; pos < end; pos += w {
		nvid, _ := ents.VID(buf, pos)
		if !a.owns(nvid) {
			continue
		}
		next[nvid] += contrib
		updates++
	}
	return updates
}

// MergeStates implements Kernel: every replica started the superstep at the
// same nextPR (the teleport terms after EndIteration), so the merged value
// is a vertex's reset value plus the sum of each replica's accumulated
// contributions.
func (k *PageRank) MergeStates(sts []State) {
	s := sts[0].(*prState)
	Merge(sts, prNext, func(v int, b, o float32) float32 { return b + (o - k.reset(s, v)) })
}

// EndIteration implements ScanKernel: nextPR becomes prevPR, nextPR resets
// to the teleport terms, and the run continues until the iteration budget
// is spent (paper §3.4's note on repeating Lines 13-31).
func (k *PageRank) EndIteration(sts []State, _ bool) bool {
	for _, st := range sts {
		s := st.(*prState)
		copy(s.prevPR, s.nextPR)
		for i := range s.nextPR {
			s.nextPR[i] = k.reset(s, i)
		}
		s.iter++
	}
	return sts[0].(*prState).iter < k.iterations
}

// Ranks exposes the final rank vector (prevPR after the last swap): the
// PageRank, or RWR's proximity to the query vertex.
func (k *PageRank) Ranks(st State) []float32 { return st.(*prState).prevPR }
