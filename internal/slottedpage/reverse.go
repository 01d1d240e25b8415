package slottedpage

import (
	"cmp"
	"slices"
	"weak" // needs a Go 1.24 toolchain, as internal/sim's iter needs 1.23
)

// revBlockSize is how many consecutive vertices share one block of a
// reverse index: the unit a commit rebuilds or shares.
const revBlockSize = 256

// revBlock holds the in-lists of up to revBlockSize consecutive vertices:
// vertex i of the block reads srcs[offs[i]:offs[i+1]]. Local uint32
// offsets bound a block at 2^32 in-edges.
type revBlock struct {
	offs []uint32 // one more entry than the block has vertices
	srcs []uint32
}

// Reverse is a graph's in-adjacency as a host-side CSR cut into blocks of
// revBlockSize vertices: pull-direction kernels scan In(v) instead of
// streaming every frontier page. It is read only once built, so any number
// of runs, and the index of a later epoch, may share its blocks.
type Reverse struct{ blocks []revBlock }

// In returns v's in-neighbors (sources of edges into v), ascending by
// source VID.
func (r *Reverse) In(v uint64) []uint32 {
	b, i := &r.blocks[v/revBlockSize], v%revBlockSize
	return b.srcs[b.offs[i]:b.offs[i+1]]
}

// Reverse returns g's reverse index, building it if no live one exists.
// The graph holds it weakly: concurrent first callers build it once, later
// callers get the same index while any caller holds a pointer to it, and
// the first GC after the last one lets go reclaims it, so the next call
// builds it again. A Graph never changes, so the index needs no
// invalidation. Mutable publishes a new Graph per commit and, while the old
// epoch's index is alive, hands the new one that index patched by the batch.
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

// revBlocks is the number of blocks an index over n vertices has.
func revBlocks(n uint64) uint64 { return (n + revBlockSize - 1) / revBlockSize }

// buildReverse builds the reverse index in two page-sequential passes
// through the graph's decoder: count in-degrees, prefix-sum them into each
// block's offsets, then place each edge's source at its target's cursor.
// All blocks' offsets share one allocation, all their sources another;
// block b's offsets start at b*(revBlockSize+1), so vertex v's start is at
// v + v/revBlockSize. The cursor is the offsets themselves, shifted back
// into place afterwards. Pages hold vertices in VID order, so every in-list
// comes out ascending by source VID and pull scans are deterministic.
func buildReverse(g *Graph) *Reverse {
	n, nb := g.NumVertices(), revBlocks(g.NumVertices())
	offs, total := make([]uint32, n+nb), 0
	dec, w := g.Decoder(), g.Decoder().Width()
	for pid := PageID(0); int(pid) < g.NumPages(); pid++ {
		buf := g.PageBytes(pid)
		for slot, slots := 0, g.Page(pid).NumSlots(); slot < slots; slot++ {
			for pos, end, _ := dec.Record(buf, slot); pos < end; pos, total = pos+w, total+1 {
				dst, _ := dec.VID(buf, pos)
				offs[dst+dst/revBlockSize+1]++
			}
		}
	}
	r, targets := &Reverse{blocks: make([]revBlock, nb)}, make([]uint32, total)
	for b := range r.blocks {
		s := uint64(b) * (revBlockSize + 1)
		cnt := min(revBlockSize, n-uint64(b)*revBlockSize)
		for i := s; i < s+cnt; i++ {
			offs[i+1] += offs[i]
		}
		end := offs[s+cnt]
		r.blocks[b] = revBlock{offs: offs[s : s+cnt+1 : s+cnt+1], srcs: targets[:end:end]}
		targets = targets[end:]
	}
	for pid := PageID(0); int(pid) < g.NumPages(); pid++ {
		buf := g.PageBytes(pid)
		src := uint32(dec.StartVID(pid))
		for slot, slots := 0, g.Page(pid).NumSlots(); slot < slots; slot, src = slot+1, src+1 {
			for pos, end, _ := dec.Record(buf, slot); pos < end; pos += w {
				dst, _ := dec.VID(buf, pos)
				b, i := &r.blocks[dst/revBlockSize], dst%revBlockSize
				b.srcs[b.offs[i]] = src
				b.offs[i]++
			}
		}
	}
	// Each block's offs[i] now marks the end of vertex i's list, which is
	// the start of i+1's: shift right by one to restore the starts.
	for _, b := range r.blocks {
		copy(b.offs[1:], b.offs[:len(b.offs)-1])
		b.offs[0] = 0
	}
	return r
}

// patched returns the reverse index of the n-vertex graph that applying
// ops, in order, to r's graph yields. A block is rebuilt only when it holds
// a destination of the batch or its vertex count grew: an insert adds its
// source in order, a delete removes every copy of it, as ApplyBatch does to
// the source's row. Every other block is r's, shared.
func (r *Reverse) patched(n uint64, ops []EdgeOp) *Reverse {
	byDst := slices.Clone(ops)
	slices.SortStableFunc(byDst, func(a, b EdgeOp) int { return cmp.Compare(a.Dst, b.Dst) })
	p := &Reverse{blocks: make([]revBlock, revBlocks(n))}
	copy(p.blocks, r.blocks)
	for b := range p.blocks {
		base, j := uint64(b)*revBlockSize, 0
		for j < len(byDst) && byDst[j].Dst < base+revBlockSize {
			j++
		}
		if cnt := min(revBlockSize, n-base); j > 0 || len(p.blocks[b].offs) != int(cnt)+1 {
			p.blocks[b] = patchBlock(p.blocks[b], base, int(cnt), byDst[:j])
		}
		byDst = byDst[j:]
	}
	return p
}

// patchBlock rebuilds one block of cnt vertices from base on, in one
// allocation with room for every op to insert, from old (empty for a new
// block) and ops, the batch's ops into the block sorted stably by
// destination.
func patchBlock(old revBlock, base uint64, cnt int, ops []EdgeOp) revBlock {
	buf := make([]uint32, cnt+1+len(old.srcs)+len(ops))
	nb := revBlock{offs: buf[: cnt+1 : cnt+1], srcs: buf[cnt+1 : cnt+1]}
	for i := 0; i < cnt; i++ {
		start := len(nb.srcs)
		if i+1 < len(old.offs) {
			nb.srcs = append(nb.srcs, old.srcs[old.offs[i]:old.offs[i+1]]...)
		}
		for ; len(ops) > 0 && ops[0].Dst == base+uint64(i); ops = ops[1:] {
			in, src := nb.srcs[start:], uint32(ops[0].Src)
			if ops[0].Del {
				nb.srcs = nb.srcs[:start+len(slices.DeleteFunc(in, func(u uint32) bool { return u == src }))]
			} else {
				at, _ := slices.BinarySearch(in, src)
				nb.srcs = slices.Insert(nb.srcs, start+at, src)
			}
		}
		nb.offs[i+1] = uint32(len(nb.srcs))
	}
	return nb
}
