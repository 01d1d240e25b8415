package slottedpage

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"weak"
)

// Source supplies a graph's topology in vertex-ID order. Vertex IDs must be
// dense in [0, NumVertices). Build may call Degree and Neighbors from several
// goroutines at once, so neither may write state the other calls read.
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
// the RVT's O(1) physical-to-logical translation depends on. Pages are
// written on up to GOMAXPROCS goroutines; the bytes do not depend on how many.
func Build(src Source, cfg Config) (*Graph, error) {
	return build(src, cfg, runtime.GOMAXPROCS(0))
}

// build is Build with pass 2 split across at most workers goroutines.
func build(src Source, cfg Config, workers int) (*Graph, error) {
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

	// Pass 1: page boundaries (the RVT) and every vertex's home RID, from
	// degrees alone. used is the open small page's fill; PageSize means no
	// small page is open.
	maxSP, perLP := cfg.maxSPDegree(), cfg.lpEntriesPerPage()
	used, slots := cfg.PageSize, 0
	for vid := uint64(0); vid < v; vid++ {
		d := src.Degree(vid)
		if d > maxSP {
			// Large vertex: a run of LPs, after which the next small vertex
			// opens a new SP (VIDs stay consecutive within a page).
			g.homePID[vid], g.homeSlot[vid] = uint32(len(g.rvt)), 0
			for seq := 0; seq*perLP < d; seq++ {
				g.lpIDs = append(g.lpIDs, PageID(len(g.rvt)))
				g.rvt = append(g.rvt, RVTEntry{StartVID: vid, LPSeq: int32(seq)})
				g.kinds = append(g.kinds, LargePage)
			}
			used = cfg.PageSize
			continue
		}
		need := cfg.recordSize(d) + cfg.SlotSize()
		if used+need > cfg.PageSize || uint64(slots) >= cfg.MaxSlotNumber() {
			g.spIDs = append(g.spIDs, PageID(len(g.rvt)))
			g.rvt = append(g.rvt, RVTEntry{StartVID: vid, LPSeq: -1})
			g.kinds = append(g.kinds, SmallPage)
			used, slots = headerSize, 0
		}
		g.homePID[vid], g.homeSlot[vid] = uint32(len(g.rvt)-1), uint32(slots)
		slots++
		used += need
	}
	if uint64(len(g.rvt)) > cfg.MaxPages() {
		return nil, fmt.Errorf("slottedpage: graph needs %d pages, (p=%d) addresses only %d",
			len(g.rvt), cfg.PIDBytes, cfg.MaxPages())
	}

	// Pass 2: write the pages. Pass 1 fixed every page's vertices and every
	// home RID, so no page's bytes depend on another's: each worker writes
	// an even share of the pages, the caller's goroutine the last.
	g.pages, g.sums = make([][]byte, len(g.rvt)), make([]uint32, len(g.rvt))
	workers = max(1, min(workers, len(g.rvt)))
	var wg sync.WaitGroup
	for w := range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.writePages(src, w*len(g.rvt)/workers, (w+1)*len(g.rvt)/workers)
		}()
	}
	g.writePages(src, (workers-1)*len(g.rvt)/workers, len(g.rvt))
	wg.Wait()
	g.dec = newDecoder(&g.cfg, g.rvt)
	return g, nil
}

// writePages writes pages [lo, hi) through a row reader of its own, each
// page checksummed as it is finished: per vertex its slot (VID, OFF), its
// record's ADJLIST_SZ and its row's home RIDs; a large page holds its run's
// share of its vertex's row.
func (g *Graph) writePages(src Source, lo, hi int) {
	c := &g.cfg
	rows := newRowReader(src)
	perLP, w := c.lpEntriesPerPage(), c.RIDBytes()
	for pid := lo; pid < hi; pid++ {
		e := g.rvt[pid]
		end := g.numVertices
		if e.LPSeq >= 0 {
			end = e.StartVID + 1
		} else if pid+1 < len(g.rvt) {
			end = g.rvt[pid+1].StartVID
		}
		buf := make([]byte, c.PageSize)
		binary.LittleEndian.PutUint32(buf, uint32(end-e.StartVID))
		buf[4] = byte(g.kinds[pid])
		rec, slot := headerSize, c.PageSize
		for vid := e.StartVID; vid < end; vid++ {
			row := rows.of(vid)
			if e.LPSeq >= 0 {
				from := int(e.LPSeq) * perLP
				row = row[from:min(len(row), from+perLP)]
			}
			slot -= c.SlotSize()
			putUint(buf[slot:], c.VIDBytes, vid)
			putUint(buf[slot+c.VIDBytes:], c.OffBytes, uint64(rec))
			putUint(buf[rec:], c.SizeBytes, uint64(len(row)))
			rec += c.SizeBytes
			putRow(buf[rec:], c, row, g.homePID, g.homeSlot)
			rec += len(row) * w
		}
		g.pages[pid], g.sums[pid] = buf, PageChecksum(buf)
	}
}

// rowReader hands writePages each vertex's row as a slice: the mutation
// path's mirror row itself, or, from any other Source, a scratch row filled
// through Neighbors and kept while a large vertex's pages ask again.
type rowReader struct {
	src    Source
	mirror [][]uint64 // src's rows, when src is a mirrorSource
	row    []uint64
	v      uint64           // the vertex row holds; ^0 (never a VID) before the first
	add    func(dst uint64) // appends to row: one closure for every Neighbors call
}

func newRowReader(src Source) *rowReader {
	r := &rowReader{src: src, v: ^uint64(0)}
	if m, ok := src.(mirrorSource); ok {
		r.mirror = m.adj
	}
	r.add = func(dst uint64) { r.row = append(r.row, dst) }
	return r
}

// of returns v's row. It panics if a Source's Neighbors disagrees with its
// Degree, which pass 1 laid the pages out by.
func (r *rowReader) of(v uint64) []uint64 {
	if r.mirror != nil {
		return r.mirror[v]
	}
	if r.v != v {
		r.row, r.v = r.row[:0], v
		r.src.Neighbors(v, r.add)
		if d := r.src.Degree(v); len(r.row) != d {
			panic(fmt.Sprintf("slottedpage: vertex %d yielded %d neighbors, expected %d", v, len(r.row), d))
		}
	}
	return r.row
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
	buf, ents := g.pages[pid], g.dec.Entries()
	for pos, end, _ := g.dec.Record(buf, slot); pos < end; pos += g.dec.w {
		dst, _ := ents.VID(buf, pos)
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
