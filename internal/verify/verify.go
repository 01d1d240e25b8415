// Package verify holds straightforward sequential reference implementations
// of every graph algorithm in the repository. All engines — GTS itself and
// each baseline — are tested for exact (or tolerance-bounded, for floating
// point) agreement with these.
package verify

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/csr"
)

// maxLevel is the deepest level an int16 level vector is trusted to hold:
// the engine refuses a traversal that goes deeper (core's beginWave), and
// so does BFS.
const maxLevel = 32000

// BFS returns per-vertex traversal levels from src; unreachable vertices
// hold -1. Like the engine, it refuses — panics — when some vertex lies
// deeper than level 32000.
func BFS(g *csr.Graph, src uint32) []int16 {
	lv := make([]int16, g.NumVertices())
	for i := range lv {
		lv[i] = -1
	}
	lv[src] = 0
	frontier := []uint32{src}
	for level := int16(0); len(frontier) > 0; level++ {
		if level > maxLevel {
			panic(fmt.Sprintf("verify: BFS exceeded %d levels (level vectors are int16)", maxLevel))
		}
		var next []uint32
		for _, v := range frontier {
			for _, n := range g.Out(v) {
				if lv[n] == -1 {
					lv[n] = level + 1
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return lv
}

// PageRank runs the paper's formulation for a fixed iteration count:
// next(v) = (1-df)/|V| + df * sum over in-edges u->v of prev(u)/outdeg(u),
// with a uniform prior and no dangling-mass redistribution (matching the
// Appendix B kernels).
func PageRank(g *csr.Graph, df float64, iterations int) []float64 {
	n := int(g.NumVertices())
	prev := make([]float64, n)
	next := make([]float64, n)
	base := (1 - df) / float64(n)
	for i := range prev {
		prev[i] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		for i := range next {
			next[i] = base
		}
		for v := 0; v < n; v++ {
			out := g.Out(uint32(v))
			if len(out) == 0 {
				continue
			}
			c := df * prev[v] / float64(len(out))
			for _, t := range out {
				next[t] += c
			}
		}
		prev, next = next, prev
	}
	return prev
}

// distItem is a priority-queue entry for Dijkstra.
type distItem struct {
	v   uint32
	d   float64
	idx int
}

type distHeap []*distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *distHeap) Push(x any)        { it := x.(*distItem); it.idx = len(*h); *h = append(*h, it) }
func (h *distHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// SSSP returns shortest-path distances from src under the weight function w;
// unreachable vertices hold +Inf. Weights must be non-negative.
func SSSP(g *csr.Graph, src uint32, w func(u, v uint64) float32) []float64 {
	n := int(g.NumVertices())
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &distHeap{{v: src, d: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(*distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, t := range g.Out(it.v) {
			nd := it.d + float64(w(uint64(it.v), uint64(t)))
			if nd < dist[t] {
				dist[t] = nd
				heap.Push(h, &distItem{v: t, d: nd})
			}
		}
	}
	return dist
}

// WCC returns weakly-connected-component labels: every vertex's label is
// the smallest vertex ID in its component (what min-label propagation
// converges to).
func WCC(g *csr.Graph) []uint32 {
	n := int(g.NumVertices())
	u := g.Undirected()
	label := make([]uint32, n)
	seen := make([]bool, n)
	for i := range label {
		label[i] = uint32(i)
	}
	for v := 0; v < n; v++ {
		if seen[v] {
			continue
		}
		// BFS labels the whole component with v (the smallest unseen ID).
		seen[v] = true
		queue := []uint32{uint32(v)}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			label[x] = uint32(v)
			for _, t := range u.Out(x) {
				if !seen[t] {
					seen[t] = true
					queue = append(queue, t)
				}
			}
		}
	}
	return label
}

// BC returns single-source betweenness (Brandes' dependency accumulation
// from one source, unweighted).
func BC(g *csr.Graph, src uint32) []float64 {
	n := int(g.NumVertices())
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	sigma[src] = 1
	order := []uint32{src}
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, t := range g.Out(v) {
			if dist[t] == -1 {
				dist[t] = dist[v] + 1
				order = append(order, t)
			}
			if dist[t] == dist[v]+1 {
				sigma[t] += sigma[v]
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, t := range g.Out(v) {
			if dist[t] == dist[v]+1 && sigma[t] > 0 {
				delta[v] += sigma[v] / sigma[t] * (1 + delta[t])
			}
		}
	}
	delta[src] = 0
	return delta
}

// RWR runs Random Walk with Restart from src: the walk restarts with
// probability c each step, so next(v) = c*[v==src] + (1-c) * sum over
// in-edges u->v of prev(u)/outdeg(u), starting from all mass at src.
func RWR(g *csr.Graph, src uint32, c float64, iterations int) []float64 {
	n := int(g.NumVertices())
	prev := make([]float64, n)
	next := make([]float64, n)
	prev[src] = 1
	for it := 0; it < iterations; it++ {
		for i := range next {
			next[i] = 0
		}
		next[src] = c
		for v := 0; v < n; v++ {
			out := g.Out(uint32(v))
			if len(out) == 0 || prev[v] == 0 {
				continue
			}
			w := (1 - c) * prev[v] / float64(len(out))
			for _, t := range out {
				next[t] += w
			}
		}
		prev, next = next, prev
	}
	return prev
}

// KCore reports which vertices survive iterative peeling at threshold k
// under multigraph undirected degree: every directed edge occurrence
// contributes to both endpoints (duplicates count multiply, a self loop
// counts twice). Rounds remove vertices whose remaining degree is below k
// until none qualify. This matches the page kernels, which tally each
// adjacency entry as stored.
func KCore(g *csr.Graph, k int) []bool {
	n := int(g.NumVertices())
	rev := g.Transpose()
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(uint64(v)) + rev.Degree(uint64(v))
	}
	drop := func(t uint32) {
		deg[t]--
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] < k {
				alive[v] = false
				changed = true
				for _, t := range g.Out(uint32(v)) {
					drop(t)
				}
				for _, t := range rev.Out(uint32(v)) {
					drop(t)
				}
			}
		}
	}
	return alive
}
