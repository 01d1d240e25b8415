package slottedpage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// oracleRecord decodes slot s of pg the way the code did before the bulk
// decoder existed — byte loops only, one entry at a time, the RVT indexed
// per entry — and is what every fixed-width path is held to. It returns the
// slot's VID, the neighbors' VIDs and the entries' page IDs.
func oracleRecord(g *Graph, pg Page, s int) (vid uint64, vids []uint64, pids []PageID) {
	c := pg.cfg
	p := c.PageSize - (s+1)*(c.VIDBytes+c.OffBytes)
	vid = getUintGeneric(pg.buf[p:], c.VIDBytes)
	off := int(getUintGeneric(pg.buf[p+c.VIDBytes:], c.OffBytes))
	n := int(getUintGeneric(pg.buf[off:], c.SizeBytes))
	start := off + c.SizeBytes
	w := c.PIDBytes + c.SlotBytes
	rec := pg.buf[start : start+n*w]
	for i := 0; i < n; i++ {
		pid := getUintGeneric(rec[i*w:], c.PIDBytes)
		slot := uint32(getUintGeneric(rec[i*w+c.PIDBytes:], c.SlotBytes))
		vids = append(vids, g.rvt[pid].StartVID+uint64(slot))
		pids = append(pids, PageID(pid))
	}
	return vid, vids, pids
}

// bulkRecord is the same through the code under test.
func bulkRecord(g *Graph, pg Page, s int) (vid uint64, vids []uint64, pids []PageID) {
	vid, _ = pg.Slot(s)
	adj := pg.Adj(s)
	vids = g.AdjVIDs(adj, nil)
	for i := range vids {
		pids = append(pids, adj.PID(i))
	}
	return vid, vids, pids
}

// outcome runs one of the two decoders and folds a panic into a flag: a
// hostile page must fail in both or in neither.
func outcome(dec func(*Graph, Page, int) (uint64, []uint64, []PageID), g *Graph, pg Page, s int) (vid uint64, vids []uint64, pids []PageID, panicked bool) {
	defer func() {
		if recover() != nil {
			vid, vids, pids, panicked = 0, nil, nil, true
		}
	}()
	vid, vids, pids = dec(g, pg, s)
	return vid, vids, pids, false
}

// sameOutcome compares the two decoders on slot s — and, where they decode,
// At + VIDOf with them — and reports whether they decoded rather than
// panicked.
func sameOutcome(t *testing.T, g *Graph, pg Page, s int, label string) bool {
	t.Helper()
	wv, wn, wp, wpanic := outcome(oracleRecord, g, pg, s)
	gv, gn, gp, gpanic := outcome(bulkRecord, g, pg, s)
	if wpanic != gpanic {
		t.Fatalf("%s slot %d: byte-loop decode panicked=%v, bulk decode panicked=%v", label, s, wpanic, gpanic)
	}
	if gv != wv || !slices.Equal(gn, wn) || !slices.Equal(gp, wp) {
		t.Fatalf("%s slot %d:\n bulk      VID %d neighbors %v pages %v\n byte-loop VID %d neighbors %v pages %v",
			label, s, gv, gn, gp, wv, wn, wp)
	}
	if gpanic {
		return false
	}
	adj := pg.Adj(s)
	for i := range wn {
		if r := adj.At(i); r.PID != wp[i] || g.VIDOf(r) != wn[i] {
			t.Fatalf("%s slot %d: At(%d) = %+v resolves to VID %d, want page %d VID %d", label, s, i, r, g.VIDOf(r), wp[i], wn[i])
		}
	}
	return true
}

// codecConfigs is every (p,q) the decoder specialises plus every other pair
// of widths 1–8, each with the standard slot widths and with odd ones.
func codecConfigs() []Config {
	var cfgs []Config
	for p := 1; p <= 8; p++ {
		for q := 1; q <= 8; q++ {
			cfgs = append(cfgs, ScaledConfig(p, q, 512))
			if (p+q)%3 == 0 {
				cfgs = append(cfgs, Config{PageSize: 512, PIDBytes: p, SlotBytes: q,
					VIDBytes: 1 + (p+2)%8, OffBytes: 2 + q%7, SizeBytes: 2 + p%7})
			}
		}
	}
	return cfgs
}

// codecSource has what the decoder must get right at the edges: empty
// records, a record that fills a small page exactly, a large vertex whose
// run ends on a partly filled page, and ordinary records around them.
func codecSource(cfg Config, r *rand.Rand) adjSource {
	const n = 48
	adj := make([][]uint64, n)
	fill := func(v, deg int) {
		for i := 0; i < deg; i++ {
			adj[v] = append(adj[v], uint64(r.Intn(n)))
		}
	}
	for v := 0; v < n; v++ {
		switch {
		case v%7 == 3: // empty
		case v == 10:
			fill(v, cfg.maxSPDegree())
		case v == 20:
			fill(v, 2*cfg.lpEntriesPerPage()+5)
		default:
			fill(v, 1+r.Intn(6))
		}
	}
	return adjSource{adj: adj}
}

// TestAdjDecodeDifferential holds the bulk decoder, Slot, Adj, PID,
// NeighborsOf and DegreeOf to the byte-loop decode over every preset and
// every other width pair, on small and large pages, empty and page-filling
// records; then damages pages and requires the same failure from both.
func TestAdjDecodeDifferential(t *testing.T) {
	for _, cfg := range codecConfigs() {
		label := fmt.Sprintf("(p=%d,q=%d,vid=%d,off=%d,sz=%d)", cfg.PIDBytes, cfg.SlotBytes, cfg.VIDBytes, cfg.OffBytes, cfg.SizeBytes)
		r := rand.New(rand.NewSource(int64(cfg.PIDBytes*8 + cfg.SlotBytes)))
		src := codecSource(cfg, r)
		g, err := Build(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if g.NumLP() < 3 {
			t.Fatalf("%s: %d large pages, want a run of 3", label, g.NumLP())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: built graph fails Validate: %v", label, err)
		}
		for pid := 0; pid < g.NumPages(); pid++ {
			pg := g.Page(PageID(pid))
			for s := 0; s < pg.NumSlots(); s++ {
				if !sameOutcome(t, g, pg, s, label) {
					t.Fatalf("%s page %d slot %d: valid page did not decode", label, pid, s)
				}
			}
		}
		checkRoundTrip(t, g, src)
		for v, row := range src.adj {
			if got := g.DegreeOf(uint64(v)); got != len(row) {
				t.Fatalf("%s: DegreeOf(%d) = %d, want %d", label, v, got, len(row))
			}
		}

		// Hostile bytes. Each case damages a copy of one page; the copy's
		// capacity is clipped to the page, so a read past it would panic.
		damage := func(pid PageID, name string, edit func(pg Page, buf []byte)) {
			big := make([]byte, 3*cfg.PageSize)
			buf := big[cfg.PageSize : 2*cfg.PageSize : 2*cfg.PageSize]
			copy(buf, g.PageBytes(pid))
			pg := NewPage(buf, &g.cfg)
			edit(pg, buf)
			for s := 0; s < g.Page(pid).NumSlots(); s++ {
				sameOutcome(t, g, pg, s, label+" "+name)
			}
		}
		sp, lp := g.SPIDs()[0], g.LPIDs()[0]
		for _, pid := range []PageID{sp, lp} {
			_, off := g.Page(pid).Slot(0)
			damage(pid, "ADJLIST_SZ past the page", func(_ Page, buf []byte) {
				putUint(buf[off:], cfg.SizeBytes, min(maxUint(cfg.SizeBytes), uint64(cfg.PageSize)))
			})
			damage(pid, "record offset at the page's last byte", func(pg Page, buf []byte) {
				putUint(buf[pg.slotPos(0)+cfg.VIDBytes:], cfg.OffBytes, uint64(cfg.PageSize-1))
			})
			damage(pid, "entry naming a page the graph lacks", func(_ Page, buf []byte) {
				if uint64(g.NumPages()) <= maxUint(cfg.PIDBytes) {
					putUint(buf[off+cfg.SizeBytes:], cfg.PIDBytes, uint64(g.NumPages()))
				}
			})
			damage(pid, "entry bytes all ones", func(_ Page, buf []byte) {
				for i := 0; i < cfg.RIDBytes(); i++ {
					buf[off+cfg.SizeBytes+i] = 0xff
				}
			})
		}
	}
}

// TestValidateRejectsBadAdjacency: Validate must report — not panic on —
// an entry naming a page the graph lacks or a slot its page lacks, with the
// bulk decoder underneath it.
func TestValidateRejectsBadAdjacency(t *testing.T) {
	for _, cfg := range []Config{ScaledConfig(2, 2, 512), ScaledConfig(3, 3, 512), ScaledConfig(5, 1, 512)} {
		for _, field := range []string{"page", "slot"} {
			g, err := Build(codecSource(cfg, rand.New(rand.NewSource(1))), cfg)
			if err != nil {
				t.Fatal(err)
			}
			pg := g.Page(g.SPIDs()[0])
			_, off := pg.Slot(0)
			entry := g.pages[g.SPIDs()[0]][off+cfg.SizeBytes:]
			if field == "page" {
				putUint(entry, cfg.PIDBytes, uint64(g.NumPages()))
			} else {
				putUint(entry[cfg.PIDBytes:], cfg.SlotBytes, maxUint(cfg.SlotBytes))
			}
			if err := g.Validate(); err == nil {
				t.Errorf("(p=%d,q=%d): Validate accepted an entry with a bad %s", cfg.PIDBytes, cfg.SlotBytes, field)
			}
		}
	}
}

// TestNeighborsOfDoesNotAllocate: the per-vertex walk decodes through a
// stack buffer, large vertices included.
func TestNeighborsOfDoesNotAllocate(t *testing.T) {
	g, err := Build(figure1Graph(600), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	edges := uint64(0)
	allocs := testing.AllocsPerRun(10, func() {
		edges = 0
		for v := uint64(0); v < g.NumVertices(); v++ {
			g.NeighborsOf(v, func(uint64) { edges++ })
		}
	})
	if allocs != 0 || edges != g.NumEdges() {
		t.Fatalf("walking %d of %d edges allocated %.0f objects, want all edges and 0", edges, g.NumEdges(), allocs)
	}
}

// FuzzAdjDecode hands the two decoders arbitrary page bytes under arbitrary
// widths: they must agree on every slot — same VIDs and pages, or both
// fail — and, the page's capacity being clipped, neither may read past it.
func FuzzAdjDecode(f *testing.F) {
	for _, cfg := range []Config{Config22(), Config33(), Config24(), Config42(), ScaledConfig(1, 5, 0), ScaledConfig(7, 2, 0)} {
		cfg.PageSize = 256
		g, err := Build(figure1Graph(60), cfg)
		if err != nil {
			f.Fatalf("building seed graph: %v", err)
		}
		for _, pid := range []PageID{g.SPIDs()[0], g.LPIDs()[0]} {
			page := append([]byte(nil), g.PageBytes(pid)...)
			f.Add(page, uint8(cfg.PIDBytes), uint8(cfg.SlotBytes), uint8(0), uint16(g.NumPages()))
			f.Add(page, uint8(cfg.PIDBytes), uint8(cfg.SlotBytes), uint8(1), uint16(1)) // most entries name a missing page
			_, off := g.Page(pid).Slot(0)
			page = append([]byte(nil), page...)
			page[off] = 0xff // ADJLIST_SZ past the page
			f.Add(page, uint8(cfg.PIDBytes), uint8(cfg.SlotBytes), uint8(0), uint16(g.NumPages()))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, p, q, odd uint8, numPages uint16) {
		cfg := ScaledConfig(1+int(p)%8, 1+int(q)%8, 256)
		if odd%2 == 1 {
			cfg.VIDBytes, cfg.OffBytes, cfg.SizeBytes = 1+int(odd>>1)%8, 2+int(odd>>4)%7, 2+int(odd>>6)%7
		}
		big := make([]byte, 3*cfg.PageSize)
		buf := big[cfg.PageSize : 2*cfg.PageSize : 2*cfg.PageSize]
		copy(buf, data)
		g := &Graph{cfg: cfg, rvt: make([]RVTEntry, 1+int(numPages)%300), pages: [][]byte{buf}}
		for i := range g.rvt {
			g.rvt[i].StartVID = uint64(i) * 1000003
		}
		pg := NewPage(buf, &g.cfg)
		for s := 0; s < min(pg.NumSlots(), cfg.PageSize/cfg.SlotSize()); s++ {
			sameOutcome(t, g, pg, s, fmt.Sprintf("(p=%d,q=%d,vid=%d,off=%d,sz=%d)",
				cfg.PIDBytes, cfg.SlotBytes, cfg.VIDBytes, cfg.OffBytes, cfg.SizeBytes))
		}
	})
}

// BenchmarkAdjDecode prices one adjacency entry's RID→VID decode on each
// preset: through the per-entry form every kernel used to loop over (At +
// VIDOf), through a bulk pass on the byte loops alone (what a width without
// a fixed-width load pays), and through the bulk decoder.
func BenchmarkAdjDecode(b *testing.B) {
	scan := func(b *testing.B, g *Graph, decode func(adj AdjView, vids []uint64) []uint64) {
		b.ReportAllocs()
		var vids []uint64
		var sum uint64
		for i := 0; i < b.N; i++ {
			for pid := 0; pid < g.NumPages(); pid++ {
				pg := g.Page(PageID(pid))
				for s, n := 0, pg.NumSlots(); s < n; s++ {
					vids = decode(pg.Adj(s), vids)
					for _, v := range vids {
						sum += v
					}
				}
			}
		}
		adjDecodeSink = sum
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(g.NumEdges())*float64(b.N)), "ns/edge")
	}
	for _, cfg := range []Config{ScaledConfig(2, 2, 4096), ScaledConfig(3, 3, 4096), ScaledConfig(2, 4, 4096), ScaledConfig(4, 2, 4096)} {
		g, err := Build(randomGraph(rand.New(rand.NewSource(7)), 4096, 32, 600), cfg)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("p%dq%d", cfg.PIDBytes, cfg.SlotBytes)
		b.Run(name+"/per-entry", func(b *testing.B) {
			scan(b, g, func(adj AdjView, vids []uint64) []uint64 {
				vids = vids[:0]
				for e := 0; e < adj.Len(); e++ {
					vids = append(vids, g.VIDOf(adj.At(e)))
				}
				return vids
			})
		})
		b.Run(name+"/generic", func(b *testing.B) {
			scan(b, g, func(adj AdjView, vids []uint64) []uint64 {
				vids = sized(vids, adj.Len())
				buf, p, q := adj.buf, cfg.PIDBytes, cfg.SlotBytes
				for e := range vids {
					vids[e] = g.rvt[getUintGeneric(buf, p)].StartVID + getUintGeneric(buf[p:], q)
					buf = buf[p+q:]
				}
				return vids
			})
		})
		b.Run(name+"/specialised", func(b *testing.B) { scan(b, g, g.AdjVIDs) })
	}
}

var adjDecodeSink uint64
