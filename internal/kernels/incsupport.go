package kernels

import (
	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// This file exports the small planning helpers that incremental kernels
// (internal/incremental) need: reverse-CSR lookup and page marking for a
// seeded frontier. They are thin wrappers over the package-private
// machinery the frontier kernels already use, so incremental and full
// kernels share one implementation of each invariant.

// RevCSR is an exported handle on the reverse adjacency (in-neighbors)
// index. Incremental kernels use it to find which vertices can feed a
// dirty target: CC rescans in(changed). The index is built by the first In
// call, so a plan that resolves without consulting it never decodes the
// topology.
type RevCSR struct{ r *revAdj }

// NewRevCSR returns the (not yet built) reverse-CSR index for g.
func NewRevCSR(g *slottedpage.Graph) RevCSR { return RevCSR{r: &revAdj{g: g}} }

// In returns v's in-neighbors, ascending by source VID. Safe from any
// goroutine.
func (r RevCSR) In(v uint64) []uint32 {
	r.r.ensure()
	return r.r.in(v)
}

// MarkVertexPages marks the page(s) that must stream for vertex v to be
// scanned: its home page, plus the whole LP run when v is a large vertex
// and expandLP is set. Identical semantics to the planning done by the
// direction-optimizing BFS.
func MarkVertexPages(g *slottedpage.Graph, v uint64, next *bitset.Set, expandLP bool) {
	markVertexPages(g, v, next, expandLP)
}
