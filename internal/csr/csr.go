// Package csr provides the in-memory sparse-graph formats discussed in the
// paper's §2 — Compressed Sparse Row (CSR), Compressed Sparse Column (CSC)
// and Coordinate list (COO) — which the CPU- and GPU-resident baseline
// engines operate on. CSR also implements slottedpage.Source, so any graph
// here can be packed into the out-of-core slotted page format GTS streams.
package csr

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Edge is one directed edge (Src -> Dst) in COO form.
type Edge struct {
	Src, Dst uint32
}

// Graph is a directed graph in CSR form: offsets[v]..offsets[v+1] indexes
// the out-neighbors of v in targets.
type Graph struct {
	offsets []int64
	targets []uint32
}

// FromEdges builds a CSR graph over numVertices vertices. Edges keep their
// per-source relative order (counting sort by source); they are not deduped,
// matching how RMAT generators and real edge lists behave.
func FromEdges(numVertices int, edges []Edge) (*Graph, error) {
	offsets := make([]int64, numVertices+1)
	for _, e := range edges {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("csr: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, numVertices)
		}
		offsets[e.Src+1]++
	}
	for i := 1; i <= numVertices; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint32, len(edges))
	next := make([]int64, numVertices)
	copy(next, offsets[:numVertices])
	for _, e := range edges {
		targets[next[e.Src]] = e.Dst
		next[e.Src]++
	}
	return &Graph{offsets: offsets, targets: targets}, nil
}

// MustFromEdges is FromEdges, panicking on invalid input.
func MustFromEdges(numVertices int, edges []Edge) *Graph {
	g, err := FromEdges(numVertices, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices reports the vertex count.
func (g *Graph) NumVertices() uint64 { return uint64(len(g.offsets) - 1) }

// NumEdges reports the directed edge count.
func (g *Graph) NumEdges() uint64 { return uint64(len(g.targets)) }

// Degree reports the out-degree of v.
func (g *Graph) Degree(v uint64) int { return int(g.offsets[v+1] - g.offsets[v]) }

// Neighbors calls fn for every out-neighbor of v in adjacency order.
func (g *Graph) Neighbors(v uint64, fn func(dst uint64)) {
	for _, t := range g.targets[g.offsets[v]:g.offsets[v+1]] {
		fn(uint64(t))
	}
}

// Out returns the out-neighbor slice of v. The slice must not be modified.
func (g *Graph) Out(v uint32) []uint32 {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// MaxDegree reports the largest out-degree in the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < int(g.NumVertices()); v++ {
		if d := g.Degree(uint64(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree reports the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}

// Transpose returns the reverse graph in CSR form (i.e. the CSC view of g):
// an edge u->v in g becomes v->u. Pull-style engines (Ligra's pull phase,
// PageRank gather) use this.
func (g *Graph) Transpose() *Graph {
	n := int(g.NumVertices())
	offsets := make([]int64, n+1)
	for _, t := range g.targets {
		offsets[t+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint32, len(g.targets))
	next := make([]int64, n)
	copy(next, offsets[:n])
	for v := 0; v < n; v++ {
		for _, t := range g.Out(uint32(v)) {
			targets[next[t]] = uint32(v)
			next[t]++
		}
	}
	return &Graph{offsets: offsets, targets: targets}
}

// Edges returns the graph as a COO edge list in CSR order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.targets))
	for v := 0; v < int(g.NumVertices()); v++ {
		for _, t := range g.Out(uint32(v)) {
			out = append(out, Edge{Src: uint32(v), Dst: t})
		}
	}
	return out
}

// SortAdjacency orders every adjacency list ascending. Compressed formats
// (Ligra+'s delta coding) and binary-search-based joins require this.
func (g *Graph) SortAdjacency() {
	for v := 0; v < int(g.NumVertices()); v++ {
		adj := g.targets[g.offsets[v]:g.offsets[v+1]]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
	}
}

// Bytes estimates the resident size of the CSR structure: 8 bytes per
// offset, 4 per target. Engines use this for memory accounting.
func (g *Graph) Bytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.targets))*4
}

// Undirected returns a graph with each edge mirrored (u->v and v->u),
// deduplicated per adjacency list. Connected-components engines use this.
func (g *Graph) Undirected() *Graph {
	n := int(g.NumVertices())
	edges := make([]Edge, 0, 2*len(g.targets))
	for v := 0; v < n; v++ {
		for _, t := range g.Out(uint32(v)) {
			edges = append(edges, Edge{Src: uint32(v), Dst: t}, Edge{Src: t, Dst: uint32(v)})
		}
	}
	u := MustFromEdges(n, edges)
	u.SortAdjacency()
	// Dedupe in place.
	w := 0
	newOffsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		adj := u.targets[u.offsets[v]:u.offsets[v+1]]
		for i, t := range adj {
			if i > 0 && adj[i-1] == t {
				continue
			}
			u.targets[w] = t
			w++
		}
		newOffsets[v+1] = int64(w)
	}
	u.targets = u.targets[:w]
	u.offsets = newOffsets
	return u
}

// ReadEdgeList parses a whitespace-separated edge list ("src dst" per
// line, '#' or '%' comment lines ignored — the SNAP/KONECT convention) and
// builds the CSR graph. Vertex IDs must be non-negative integers; the
// vertex count is 1 + the largest ID seen.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	maxID := int64(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("csr: line %d: want 'src dst', got %q", line, text)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("csr: line %d: %w", line, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("csr: line %d: %w", line, err)
		}
		if src < 0 || dst < 0 || src > int64(^uint32(0)) || dst > int64(^uint32(0)) {
			return nil, fmt.Errorf("csr: line %d: vertex ID out of uint32 range", line)
		}
		if src > maxID {
			maxID = src
		}
		if dst > maxID {
			maxID = dst
		}
		edges = append(edges, Edge{Src: uint32(src), Dst: uint32(dst)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromEdges(int(maxID+1), edges)
}

// ReadEdgeListFile is ReadEdgeList over a file path.
func ReadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}
