package slottedpage

import (
	"fmt"
	"sync"
	"weak"
)

// Source supplies a graph's topology in vertex-ID order. Vertex IDs must be
// dense in [0, NumVertices).
type Source interface {
	NumVertices() uint64
	NumEdges() uint64
	// Degree returns the out-degree of v.
	Degree(v uint64) int
	// Neighbors calls fn for every out-neighbor of v, in adjacency order.
	Neighbors(v uint64, fn func(dst uint64))
}

// RVTEntry is one row of the RID-to-VID mapping table (paper Appendix A):
// the first logical vertex ID stored in a page, and for large pages the
// page's position in its vertex's LP run (LPSeq = -1 marks a small page).
type RVTEntry struct {
	StartVID uint64
	LPSeq    int32
}

// Graph is an immutable slotted-page topology store plus its side tables.
type Graph struct {
	cfg         Config
	numVertices uint64
	numEdges    uint64
	pages       [][]byte
	sums        []uint32 // per-page CRC-32, parallel to pages
	rvt         []RVTEntry
	dec         Decoder // built once from cfg and rvt; see ridcodec.go
	kinds       []Kind
	spIDs       []PageID
	lpIDs       []PageID
	homePID     []uint32
	homeSlot    []uint32
	revMu       sync.Mutex
	rev         weak.Pointer[Reverse] // see Reverse
	degMu       sync.Mutex
	deg         weak.Pointer[OutDegrees] // see OutDegrees
}

// Build packs src into slotted pages under cfg. Vertices are placed in VID
// order so that VIDs are consecutive within every small page — the property
// the RVT's O(1) physical-to-logical translation depends on.
func Build(src Source, cfg Config) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v := src.NumVertices()
	if v > cfg.MaxAddressableVertices() {
		return nil, fmt.Errorf("slottedpage: %d vertices exceed capacity %d of (p=%d,q=%d)",
			v, cfg.MaxAddressableVertices(), cfg.PIDBytes, cfg.SlotBytes)
	}
	g := &Graph{
		cfg:         cfg,
		numVertices: v,
		numEdges:    src.NumEdges(),
		homePID:     make([]uint32, v),
		homeSlot:    make([]uint32, v),
	}

	// Pass 1: compute page boundaries and per-vertex home RIDs from degrees.
	type pageMeta struct {
		kind     Kind
		startVID uint64
		slots    int // for SP: vertex count; for LP: always 1
		lpSeq    int32
		lpDeg    int // for LP: adjacency entries stored in this page
	}
	var metas []pageMeta
	maxSP := cfg.maxSPDegree()
	perLP := cfg.lpEntriesPerPage()
	slotSz, ridSz := cfg.SlotSize(), cfg.RIDBytes()

	curOpen := false
	var cur pageMeta
	curUsed := 0
	closeCur := func() {
		if curOpen {
			metas = append(metas, cur)
			curOpen = false
		}
	}
	for vid := uint64(0); vid < v; vid++ {
		d := src.Degree(vid)
		if d > maxSP {
			// Large vertex: close the open SP (VIDs must stay consecutive
			// within a page) and emit a run of LPs.
			closeCur()
			g.homePID[vid] = uint32(len(metas))
			g.homeSlot[vid] = 0
			for seq, rest := int32(0), d; rest > 0; seq, rest = seq+1, rest-perLP {
				n := rest
				if n > perLP {
					n = perLP
				}
				metas = append(metas, pageMeta{kind: LargePage, startVID: vid, slots: 1, lpSeq: seq, lpDeg: n})
			}
			continue
		}
		need := cfg.recordSize(d) + slotSz
		if !curOpen || curUsed+need > cfg.PageSize || uint64(cur.slots) >= cfg.MaxSlotNumber() {
			closeCur()
			cur = pageMeta{kind: SmallPage, startVID: vid, lpSeq: -1}
			curUsed = headerSize
			curOpen = true
		}
		g.homePID[vid] = uint32(len(metas))
		g.homeSlot[vid] = uint32(cur.slots)
		cur.slots++
		curUsed += need
	}
	closeCur()

	if uint64(len(metas)) > cfg.MaxPages() {
		return nil, fmt.Errorf("slottedpage: graph needs %d pages, (p=%d) addresses only %d",
			len(metas), cfg.PIDBytes, cfg.MaxPages())
	}

	// Pass 2: materialize pages, translating neighbor VIDs to physical IDs.
	g.pages = make([][]byte, len(metas))
	g.rvt = make([]RVTEntry, len(metas))
	g.kinds = make([]Kind, len(metas))
	// emit is the one closure every Neighbors call receives: it writes the
	// entries from the skip-th on into out until out is full. Its cursor
	// lives out here so that a vertex costs no closure allocation.
	var (
		out           []byte
		seen, skip, n int
	)
	emit := func(dst uint64) {
		if seen >= skip && n < len(out) {
			putRID(out[n:], &g.cfg, uint64(g.homePID[dst]), uint64(g.homeSlot[dst]))
			n += ridSz
		}
		seen++
	}
	writeEntries := func(entries []byte, vid uint64, from int) {
		out, seen, skip, n = entries, 0, from, 0
		src.Neighbors(vid, emit)
		if n != len(out) {
			panic(fmt.Sprintf("slottedpage: vertex %d yielded %d neighbors, expected %d",
				vid, n/ridSz, len(out)/ridSz))
		}
	}
	for pid, m := range metas {
		g.rvt[pid] = RVTEntry{StartVID: m.startVID, LPSeq: m.lpSeq}
		g.kinds[pid] = m.kind
		w := newPageWriter(&g.cfg, m.kind)
		if m.kind == LargePage {
			_, entries := w.addVertex(m.startVID, m.lpDeg)
			writeEntries(entries, m.startVID, int(m.lpSeq)*perLP)
			g.lpIDs = append(g.lpIDs, PageID(pid))
		} else {
			for s := 0; s < m.slots; s++ {
				vid := m.startVID + uint64(s)
				d := src.Degree(vid)
				_, entries := w.addVertex(vid, d)
				writeEntries(entries, vid, 0)
			}
			g.spIDs = append(g.spIDs, PageID(pid))
		}
		g.pages[pid] = w.finish()
	}
	g.dec = newDecoder(&g.cfg, g.rvt)
	g.computeChecksums()
	return g, nil
}

// Config returns the layout configuration the graph was built with.
func (g *Graph) Config() Config { return g.cfg }

// NumVertices reports the vertex count.
func (g *Graph) NumVertices() uint64 { return g.numVertices }

// NumEdges reports the edge count.
func (g *Graph) NumEdges() uint64 { return g.numEdges }

// NumPages reports the total page count (small + large).
func (g *Graph) NumPages() int { return len(g.pages) }

// NumSP reports the small-page count (paper Table 3's #SP).
func (g *Graph) NumSP() int { return len(g.spIDs) }

// NumLP reports the large-page count (paper Table 3's #LP).
func (g *Graph) NumLP() int { return len(g.lpIDs) }

// SPIDs returns the small-page IDs in order. The slice must not be modified.
func (g *Graph) SPIDs() []PageID { return g.spIDs }

// LPIDs returns the large-page IDs in order. The slice must not be modified.
func (g *Graph) LPIDs() []PageID { return g.lpIDs }

// TopologyBytes is the total size of all pages — what GTS streams.
func (g *Graph) TopologyBytes() int64 {
	return int64(len(g.pages)) * int64(g.cfg.PageSize)
}

// Page returns a read-only view of page pid.
func (g *Graph) Page(pid PageID) Page { return Page{buf: g.pages[pid], cfg: &g.cfg} }

// PageBytes returns the raw bytes of page pid. The slice must not be modified.
func (g *Graph) PageBytes(pid PageID) []byte { return g.pages[pid] }

// Kind reports whether page pid is a small or large page.
func (g *Graph) Kind(pid PageID) Kind { return g.kinds[pid] }

// RVT returns the RID-to-VID mapping entry for page pid.
func (g *Graph) RVT(pid PageID) RVTEntry { return g.rvt[pid] }

// Decoder returns the graph's record and adjacency-entry decoder, the form
// page kernels and topology scans read page bytes through.
func (g *Graph) Decoder() *Decoder { return &g.dec }

// VIDOf translates a physical record ID to a logical vertex ID via the RVT:
// StartVID + slot. For large pages the slot is always 0, so this yields the
// owning vertex.
func (g *Graph) VIDOf(r RID) uint64 { return g.rvt[r.PID].StartVID + uint64(r.Slot) }

// HomeOf returns the physical record ID of vertex v (for a large vertex,
// its first LP).
func (g *Graph) HomeOf(v uint64) RID {
	return RID{PID: PageID(g.homePID[v]), Slot: g.homeSlot[v]}
}

// NeighborsOf decodes vertex v's adjacency list back out of the page bytes,
// calling fn with each neighbor's logical VID. For a large vertex this walks
// the whole LP run. It is the inverse of Build: the per-vertex form of the
// decode the engines run page by page, for planners and checkers that need
// a few vertices' lists rather than a scan (a scan over every vertex should
// walk pages through the Decoder itself).
func (g *Graph) NeighborsOf(v uint64, fn func(dst uint64)) {
	home := g.HomeOf(v)
	if g.kinds[home.PID] == SmallPage {
		g.eachNeighbor(home.PID, int(home.Slot), fn)
		return
	}
	for pid := home.PID; g.inLPRun(pid, v); pid++ {
		g.eachNeighbor(pid, 0, fn)
	}
}

// eachNeighbor calls fn with the VID of every entry of one record.
func (g *Graph) eachNeighbor(pid PageID, slot int, fn func(dst uint64)) {
	buf := g.pages[pid]
	for pos, end, _ := g.dec.Record(buf, slot); pos < end; pos += g.dec.w {
		dst, _ := g.dec.VID(buf, pos)
		fn(dst)
	}
}

// inLPRun reports whether pid is one of the large pages holding vertex v's
// adjacency list.
func (g *Graph) inLPRun(pid PageID, v uint64) bool {
	return int(pid) < len(g.pages) && g.kinds[pid] == LargePage && g.rvt[pid].StartVID == v
}

// DegreeOf reports vertex v's out-degree by summing its records' ADJLIST_SZ
// fields; no adjacency entry is decoded.
func (g *Graph) DegreeOf(v uint64) int {
	home := g.HomeOf(v)
	if g.kinds[home.PID] == SmallPage {
		return g.Page(home.PID).Adj(int(home.Slot)).Len()
	}
	d := 0
	for pid := home.PID; g.inLPRun(pid, v); pid++ {
		d += g.Page(pid).Adj(0).Len()
	}
	return d
}

// OutDegrees is a graph's out-degree table, read off its records'
// ADJLIST_SZ fields (a large vertex's run pages sum; no adjacency entry is
// decoded). It is read only once built.
type OutDegrees struct{ deg []int32 }

// Of returns vertex v's out-degree.
func (d *OutDegrees) Of(v uint64) int32 { return d.deg[v] }

// OutDegrees returns g's out-degree table, building it if no live one
// exists. The graph holds it weakly, as it holds its Reverse: every caller
// shares one table while any holds it, a GC with no holder reclaims it, and
// a graph no caller asks never builds it.
func (g *Graph) OutDegrees() *OutDegrees {
	g.degMu.Lock()
	defer g.degMu.Unlock()
	if d := g.deg.Value(); d != nil {
		return d
	}
	d := &OutDegrees{deg: make([]int32, g.numVertices)}
	for pid, buf := range g.pages {
		vid := g.dec.StartVID(PageID(pid))
		for slot, slots := 0, g.Page(PageID(pid)).NumSlots(); slot < slots; slot, vid = slot+1, vid+1 {
			_, _, deg := g.dec.Record(buf, slot)
			d.deg[vid] += int32(deg)
		}
	}
	g.deg = weak.Make(d)
	return d
}

// VertexRange reports the half-open VID interval [start, start+count) whose
// records live in page pid. For a large page, count is 1.
func (g *Graph) VertexRange(pid PageID) (start, count uint64) {
	start = g.rvt[pid].StartVID
	if g.kinds[pid] == LargePage {
		return start, 1
	}
	return start, uint64(g.Page(pid).NumSlots())
}
