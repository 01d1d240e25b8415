package slottedpage

import "weak" // needs a Go 1.24 toolchain, as internal/sim's iter needs 1.23

// Reverse is a graph's in-adjacency as a host-side CSR: pull-direction
// kernels scan In(v) instead of streaming every frontier page. It is read
// only once built, so any number of runs may share one.
type Reverse struct {
	offsets []int64
	targets []uint32
}

// In returns v's in-neighbors (sources of edges into v), ascending by
// source VID.
func (r *Reverse) In(v uint64) []uint32 { return r.targets[r.offsets[v]:r.offsets[v+1]] }

// Reverse returns g's reverse index, building it if no live one exists.
// The graph holds it weakly: concurrent first callers build it once, later
// callers get the same index while any caller holds a pointer to it, and
// the first GC after the last one lets go reclaims it, so the next call
// builds it again. A Graph never changes, so the index needs no
// invalidation; Mutable publishes a new Graph per commit, and the old
// epoch's index dies with it.
func (g *Graph) Reverse() *Reverse {
	g.revMu.Lock()
	defer g.revMu.Unlock()
	if r := g.rev.Value(); r != nil {
		return r
	}
	r := buildReverse(g)
	g.rev = weak.Make(r)
	return r
}

// buildReverse builds the reverse CSR in two page-sequential passes through
// the graph's decoder: count in-degrees, prefix-sum them into offsets, then
// place each edge's source at its target's cursor. The cursor is the offsets
// array itself, shifted back into place afterwards. Pages hold vertices in
// VID order, so every in-list comes out ascending by source VID and pull
// scans are deterministic.
func buildReverse(g *Graph) *Reverse {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	dec, w := g.Decoder(), g.Decoder().Width()
	for pid := PageID(0); int(pid) < g.NumPages(); pid++ {
		buf := g.PageBytes(pid)
		for slot, slots := 0, g.Page(pid).NumSlots(); slot < slots; slot++ {
			for pos, end, _ := dec.Record(buf, slot); pos < end; pos += w {
				dst, _ := dec.VID(buf, pos)
				offsets[dst+1]++
			}
		}
	}
	for i := uint64(0); i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]uint32, offsets[n])
	for pid := PageID(0); int(pid) < g.NumPages(); pid++ {
		buf := g.PageBytes(pid)
		src := uint32(dec.StartVID(pid))
		for slot, slots := 0, g.Page(pid).NumSlots(); slot < slots; slot, src = slot+1, src+1 {
			for pos, end, _ := dec.Record(buf, slot); pos < end; pos += w {
				dst, _ := dec.VID(buf, pos)
				targets[offsets[dst]] = src
				offsets[dst]++
			}
		}
	}
	// offsets[v] now marks the end of v's list, which is the start of
	// v+1's: shift right by one to restore the starts.
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
	return &Reverse{offsets: offsets, targets: targets}
}
