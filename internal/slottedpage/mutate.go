package slottedpage

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"weak"
)

// EdgeOp is one directed-edge mutation against a mutable graph: an insert
// (Del false) or a delete (Del true) of Src -> Dst. Deletes remove every
// occurrence of the edge (the store permits parallel edges); deleting an
// absent edge, one naming a vertex past the vertex count included, is a
// no-op. Inserts may name vertices beyond the current vertex count — the
// vertex space grows to cover them; deletes never grow it.
type EdgeOp struct {
	Del bool
	Src uint64
	Dst uint64
}

// Mutable wraps an immutable slotted-page Graph with a batched mutation
// path. Readers take latch-free snapshots (an atomic pointer load) and run
// against a fully immutable Graph; ApplyBatch edits the adjacency mirror in
// place under an undo log, builds the successor from it off to the side and
// publishes it with a single atomic swap, adopting every page whose bytes
// did not change: readers never block, and no published page is written.
//
// The successor is produced by re-packing the mutated adjacency mirror
// through Build, so a mutated graph is byte-identical to a from-scratch
// build over the same logical edges — pages, checksums, RVT, home RIDs,
// everything. That equivalence is what makes WAL recovery exact: replaying
// a committed batch after a crash lands on the same bytes the crashed
// process would have published.
//
// Writers are serialized (one ApplyBatch at a time); reads are safe
// concurrently with a write.
type Mutable struct {
	mu    sync.Mutex // serializes writers
	cur   atomic.Pointer[Graph]
	adj   [][]uint64 // adjacency mirror of the current graph
	edges uint64
}

// mirrorSource adapts an adjacency mirror to the Build Source contract;
// Build's pass 2 reads its rows as they are (rowReader).
type mirrorSource struct {
	adj   [][]uint64
	edges uint64
}

func (s mirrorSource) NumVertices() uint64 { return uint64(len(s.adj)) }
func (s mirrorSource) NumEdges() uint64    { return s.edges }
func (s mirrorSource) Degree(v uint64) int { return len(s.adj[v]) }
func (s mirrorSource) Neighbors(v uint64, fn func(dst uint64)) {
	for _, d := range s.adj[v] {
		fn(d)
	}
}

// NewMutable wraps g for mutation, decoding its adjacency into the host
// mirror the mutation path rebuilds from. The wrapped Graph must not be
// mutated elsewhere; its page buffers may be adopted (shared) by successor
// snapshots.
func NewMutable(g *Graph) *Mutable {
	m := &Mutable{adj: decodeRows(g), edges: g.NumEdges()}
	m.cur.Store(g)
	return m
}

// NewMutableFrom builds the mutable graph whose edges are src's with ops
// applied in order, packing its pages once: byte for byte the snapshot
// NewMutable over Build(src, cfg) publishes after ApplyBatch(ops), without
// the base graph's own pages or their decode. ops may be empty.
func NewMutableFrom(src Source, cfg Config, ops []EdgeOp) (*Mutable, error) {
	m := &Mutable{adj: make([][]uint64, src.NumVertices()), edges: src.NumEdges()}
	// The rows share one array, each capped at its length: edit and
	// ApplyBatch copy a row before they change it.
	all := make([]uint64, 0, src.NumEdges())
	add := func(dst uint64) { all = append(all, dst) }
	for v := range m.adj {
		start := len(all)
		if src.Neighbors(uint64(v), add); len(all) > start {
			m.adj[v] = all[start:len(all):len(all)]
		}
	}
	if _, err := m.edit(ops, cfg); err != nil {
		return nil, err
	}
	g, err := Build(mirrorSource{adj: m.adj, edges: m.edges}, cfg)
	if err != nil {
		return nil, err
	}
	m.cur.Store(g)
	return m, nil
}

// decodeRows decodes g's adjacency into one row per vertex, walking the
// pages in order and each record once. A small page's record is decoded
// straight into its row; a large vertex's row is sized from its records'
// ADJLIST_SZ at the first page of its run and appended to page by page.
// Rows of degree 0 stay nil.
func decodeRows(g *Graph) [][]uint64 {
	rows := make([][]uint64, g.NumVertices())
	dec := &g.dec
	ents := dec.Entries()
	for pid, buf := range g.pages {
		v := dec.startVID[pid]
		if g.kinds[pid] == LargePage {
			if rows[v] == nil {
				rows[v] = make([]uint64, 0, g.DegreeOf(v))
			}
			for pos, end, _ := dec.Record(buf, 0); pos < end; pos += dec.w {
				dst, _ := ents.VID(buf, pos)
				rows[v] = append(rows[v], dst)
			}
			continue
		}
		for s, n := 0, g.Page(PageID(pid)).NumSlots(); s < n; s, v = s+1, v+1 {
			pos, _, deg := dec.Record(buf, s)
			if deg == 0 {
				continue
			}
			row := make([]uint64, deg)
			for i := range row {
				row[i], _ = ents.VID(buf, pos)
				pos += dec.w
			}
			rows[v] = row
		}
	}
	return rows
}

// Snapshot returns the current immutable graph. The snapshot stays valid
// (and internally consistent) forever; later batches publish new snapshots
// without disturbing it.
func (m *Mutable) Snapshot() *Graph { return m.cur.Load() }

// NumEdges returns the current logical edge count.
func (m *Mutable) NumEdges() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.edges
}

// ApplyBatch applies ops atomically: either the whole batch commits and the
// returned Graph is the published successor snapshot, or no observable
// state changes. The successor shares the byte buffers of every page whose
// bytes the batch did not change — few: a batch moves page boundaries, and
// every page naming a vertex whose home moved changes with them. If the
// predecessor's reverse index is alive, the successor gets it patched by
// the batch.
func (m *Mutable) ApplyBatch(ops []EdgeOp) (*Graph, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	old := m.cur.Load()
	cfg := old.Config()
	oldN, oldEdges := len(m.adj), m.edges
	undo, err := m.edit(ops, cfg)
	if err != nil {
		return nil, err
	}
	next, err := Build(mirrorSource{adj: m.adj, edges: m.edges}, cfg)
	if err != nil {
		for v, row := range undo {
			m.adj[v] = row
		}
		clear(m.adj[oldN:])
		m.adj, m.edges = m.adj[:oldN], oldEdges
		return nil, err
	}

	// Adopt unchanged pages from the predecessor: where the rebuilt page is
	// byte-equal to the old one, the successor points at the old buffer, so
	// readers of either snapshot share one physical page.
	for pid := 0; pid < len(next.pages) && pid < len(old.pages); pid++ {
		if next.sums[pid] == old.sums[pid] && bytes.Equal(next.pages[pid], old.pages[pid]) {
			next.pages[pid] = old.pages[pid]
		}
	}

	old.revMu.Lock()
	rev := old.rev.Value()
	old.revMu.Unlock()
	if rev != nil {
		next.rev = weak.Make(rev.patched(uint64(len(m.adj)), ops))
	}

	m.cur.Store(next)
	return next, nil
}

// edit applies ops to the adjacency mirror and its edge count in place and
// returns, for every row it changed, the row it replaced. The vertex space
// grows once, to cover the batch's largest inserted ID, and only if every
// ID is addressable under cfg: a batch that is not changes nothing. A row
// is copied the first time the batch touches it, so the undo rows and the
// table's old length put back the mirror as it was.
func (m *Mutable) edit(ops []EdgeOp, cfg Config) (undo map[uint64][]uint64, err error) {
	n := uint64(len(m.adj))
	for _, op := range ops {
		for _, v := range [2]uint64{op.Src, op.Dst} {
			if v >= cfg.MaxAddressableVertices() {
				return nil, fmt.Errorf("slottedpage: vertex %d exceeds addressable capacity %d", v, cfg.MaxAddressableVertices())
			}
			if !op.Del {
				n = max(n, v+1)
			}
		}
	}
	m.adj = append(m.adj, make([][]uint64, n-uint64(len(m.adj)))...)
	undo = make(map[uint64][]uint64)
	for _, op := range ops {
		if op.Src >= n {
			continue // a delete from a vertex the graph does not have
		}
		row := m.adj[op.Src]
		if _, ok := undo[op.Src]; !ok {
			undo[op.Src] = row
			row = append(make([]uint64, 0, len(row)+1), row...)
		}
		if op.Del {
			kept := slices.DeleteFunc(row, func(d uint64) bool { return d == op.Dst })
			m.edges -= uint64(len(row) - len(kept))
			row = kept
		} else {
			row = append(row, op.Dst)
			m.edges++
		}
		m.adj[op.Src] = row
	}
	return undo, nil
}
