package slottedpage

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// oracleRecord decodes slot s of pg field by field — byte loops only, one
// entry at a time, the RVT indexed per entry — and is what the Decoder is
// held to. It returns the slot's stored VID, the neighbors' VIDs and the
// entries' page IDs, and panics on a record the page cannot hold: one that
// starts inside the page header, counts a negative number of entries, or
// reaches into slot 0 — the page's last SlotSize bytes — or beyond.
func oracleRecord(g *Graph, pg Page, s int) (vid uint64, vids []uint64, pids []PageID) {
	c := pg.cfg
	p := c.PageSize - (s+1)*(c.VIDBytes+c.OffBytes)
	vid = getUintGeneric(pg.buf[p:], c.VIDBytes)
	off := int(getUintGeneric(pg.buf[p+c.VIDBytes:], c.OffBytes))
	if off < headerSize {
		panic("record inside the page header")
	}
	n := int(getUintGeneric(pg.buf[off:], c.SizeBytes))
	start := off + c.SizeBytes
	w := c.PIDBytes + c.SlotBytes
	if limit := c.PageSize - c.SlotSize(); n < 0 || start > limit || n > (limit-start)/w {
		panic("record past the record area")
	}
	rec := pg.buf[start : start+n*w]
	for i := 0; i < n; i++ {
		pid := getUintGeneric(rec[i*w:], c.PIDBytes)
		slot := uint32(getUintGeneric(rec[i*w+c.PIDBytes:], c.SlotBytes))
		vids = append(vids, g.rvt[pid].StartVID+uint64(slot))
		pids = append(pids, PageID(pid))
	}
	return vid, vids, pids
}

// decoderRecord is the same through the code under test, the way a page
// kernel drives it. The Decoder never reads a slot's VID field.
func decoderRecord(g *Graph, pg Page, s int) (vids []uint64, pids []PageID) {
	dec, buf := g.Decoder(), pg.Bytes()
	ents := dec.Entries()
	pos, end, deg := dec.Record(buf, s)
	if end-pos != deg*dec.Width() {
		panic(fmt.Sprintf("Record: [%d,%d) is not %d entries of %d bytes", pos, end, deg, dec.Width()))
	}
	for ; pos < end; pos += dec.Width() {
		vid, pid := ents.VID(buf, pos)
		vids, pids = append(vids, vid), append(pids, pid)
	}
	return vids, pids
}

// sameOutcome compares the two decoders on slot s, a panic counting as an
// outcome: a hostile page must fail in both or in neither. Where they
// decode, At + VIDOf are compared with them too. It returns the slot's
// stored VID and whether the record decoded.
func sameOutcome(t *testing.T, g *Graph, pg Page, s int, label string) (vid uint64, ok bool) {
	t.Helper()
	var wn, gn []uint64
	var wp, gp []PageID
	wpanic := panics(func() { vid, wn, wp = oracleRecord(g, pg, s) })
	gpanic := panics(func() { gn, gp = decoderRecord(g, pg, s) })
	if wpanic != nil || gpanic != nil {
		if (wpanic == nil) != (gpanic == nil) {
			t.Fatalf("%s slot %d: field-by-field decode panicked with %v, Decoder with %v", label, s, wpanic, gpanic)
		}
		return 0, false
	}
	if !slices.Equal(gn, wn) || !slices.Equal(gp, wp) {
		t.Fatalf("%s slot %d:\n Decoder        neighbors %v pages %v\n field by field neighbors %v pages %v",
			label, s, gn, gp, wn, wp)
	}
	adj := pg.Adj(s)
	if adj.Len() != len(wn) {
		t.Fatalf("%s slot %d: Adj has %d entries, want %d", label, s, adj.Len(), len(wn))
	}
	for i := range wn {
		if r := adj.At(i); r.PID != wp[i] || g.VIDOf(r) != wn[i] {
			t.Fatalf("%s slot %d: At(%d) = %+v resolves to VID %d, want page %d VID %d", label, s, i, r, g.VIDOf(r), wp[i], wn[i])
		}
	}
	return vid, true
}

// panics runs f and returns what it panicked with, nil if it returned.
func panics(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// codecConfigs is the four shipped (p,q) presets and every other pair of
// widths 1–8 (so entries of 2 to 16 bytes), each with the standard slot and
// record fields and, for a third of them, odd ones; and tinyFields.
func codecConfigs() []Config {
	cfgs := []Config{tinyFields}
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

// tinyFields is the narrowest layout Config.Validate admits: 2-byte
// entries before 3-byte slots, w + SlotSize < 8. An 8-byte load forward
// from a record's last entry would run off the page's end here — a page's
// last record may end 3 bytes before it — so every load the Decoder makes
// must end at or before the bytes it reads, as it must for an entry wider
// than 8 bytes.
var tinyFields = Config{PageSize: 512, PIDBytes: 1, SlotBytes: 1, VIDBytes: 1, OffBytes: 2, SizeBytes: 2}

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

// TestAdjDecodeDifferential holds the Decoder (Record + VID), Slot, Adj,
// At, NeighborsOf and DegreeOf to the field-by-field decode over every
// preset and every other width pair, on small and large pages, empty and
// page-filling records; checks that a slot's stored VID is the one its
// position implies; then damages pages and requires the same failure from
// both.
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
		// The two edges of the record area: a record right behind the
		// header (the 8 bytes ending with its ADJLIST_SZ reach back into it)
		// and one that fills its page up to the slot directory (full) —
		// where, under tinyFields, an 8-byte load forward from the last
		// entry would leave the page.
		var empty, atHeader, full, offPage int
		dec := g.Decoder()
		if want := cfg.PIDBytes == 2 && cfg.SlotBytes == 2; (dec.Entries().two == nil) != want {
			t.Fatalf("%s: entry reader reads an entry as one 32-bit word: %v, want %v", label, dec.Entries().two == nil, want)
		}
		for pid := 0; pid < g.NumPages(); pid++ {
			pg := g.Page(PageID(pid))
			for s := 0; s < pg.NumSlots(); s++ {
				vid, ok := sameOutcome(t, g, pg, s, label)
				if !ok {
					t.Fatalf("%s page %d slot %d: valid page did not decode", label, pid, s)
				}
				if want := dec.StartVID(PageID(pid)) + uint64(s); vid != want {
					t.Fatalf("%s page %d slot %d stores VID %d, its position says %d", label, pid, s, vid, want)
				}
				pos, end, deg := dec.Record(pg.Bytes(), s)
				if deg == 0 {
					empty++
				}
				if pos == headerSize+cfg.SizeBytes {
					atHeader++
				}
				if deg > 0 && end+cfg.RIDBytes() > cfg.PageSize-pg.NumSlots()*cfg.SlotSize() {
					full++
				}
				if deg > 0 && end-cfg.RIDBytes()+8 > cfg.PageSize {
					offPage++
				}
			}
		}
		if empty == 0 || atHeader != g.NumPages() || full < g.NumLP()-1 || (cfg == tinyFields && offPage == 0) {
			t.Fatalf("%s: %d empty records, %d of %d pages' first records behind the header, %d full records (%d LPs), %d whose last entry is under 8 bytes from the page's end",
				label, empty, atHeader, g.NumPages(), full, g.NumLP(), offPage)
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
			damage(pid, "ADJLIST_SZ all ones", func(_ Page, buf []byte) {
				putUint(buf[off:], cfg.SizeBytes, maxUint(cfg.SizeBytes))
			})
			damage(pid, "ADJLIST_SZ with only its top bit", func(_ Page, buf []byte) {
				putUint(buf[off:], cfg.SizeBytes, 1<<(8*cfg.SizeBytes-1))
			})
			damage(pid, "record offset at the page's last byte", func(pg Page, buf []byte) {
				putUint(buf[pg.slotPos(0)+cfg.VIDBytes:], cfg.OffBytes, uint64(cfg.PageSize-1))
			})
			damage(pid, "record offset inside the header", func(pg Page, buf []byte) {
				putUint(buf[pg.slotPos(0)+cfg.VIDBytes:], cfg.OffBytes, headerSize-1)
			})
			damage(pid, "record offset all ones", func(pg Page, buf []byte) {
				putUint(buf[pg.slotPos(0)+cfg.VIDBytes:], cfg.OffBytes, maxUint(cfg.OffBytes))
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

// TestEntriesMatchFieldOracle holds the entry reader to the field-by-field
// form on every entry of every page: a kernel's loop — Record, then VID at
// steps of Width — must visit exactly the record's AdjView entries and
// resolve each to AdjView.At's page and VIDOf's vertex. The graphs are
// random, with heavy vertices that spill into large-page runs; the layouts
// are the four presets' widths, which take the (2,2) word and the two-load
// form, and (5,5), whose 10-byte entry no single load holds. An entry
// naming a page past the graph's last must panic, not wrap.
func TestEntriesMatchFieldOracle(t *testing.T) {
	for _, cfg := range []Config{Config22(), Config33(), Config24(), Config42(), ScaledConfig(5, 5, 0)} {
		cfg.PageSize = 1024
		label := fmt.Sprintf("(p=%d,q=%d)", cfg.PIDBytes, cfg.SlotBytes)
		g, err := Build(randomGraph(rand.New(rand.NewSource(int64(cfg.RIDBytes()))), 3000, 12, 400), cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		runs := 0
		for _, pid := range g.LPIDs() {
			if g.RVT(pid).LPSeq == 1 {
				runs++
			}
		}
		if runs == 0 {
			t.Fatalf("%s: no large-page run of two pages or more", label)
		}
		dec := g.Decoder()
		ents, entries := dec.Entries(), 0
		for pid := PageID(0); int(pid) < g.NumPages(); pid++ {
			pg := g.Page(pid)
			buf := pg.Bytes()
			for s := 0; s < pg.NumSlots(); s++ {
				adj, i := pg.Adj(s), 0
				for pos, end, _ := dec.Record(buf, s); pos < end; pos, i = pos+dec.Width(), i+1 {
					if i >= adj.Len() {
						t.Fatalf("%s page %d slot %d: the loop visits more than the record's %d entries", label, pid, s, adj.Len())
					}
					vid, npid := ents.VID(buf, pos)
					if r := adj.At(i); npid != r.PID || vid != g.VIDOf(r) {
						t.Fatalf("%s page %d slot %d entry %d: reader says page %d VID %d, At+VIDOf page %d VID %d",
							label, pid, s, i, npid, vid, r.PID, g.VIDOf(r))
					}
				}
				if i != adj.Len() {
					t.Fatalf("%s page %d slot %d: the loop visits %d of the record's %d entries", label, pid, s, i, adj.Len())
				}
				entries += i
			}
		}
		if uint64(entries) != g.NumEdges() {
			t.Fatalf("%s: %d entries read, the graph has %d edges", label, entries, g.NumEdges())
		}
		buf := append([]byte(nil), g.PageBytes(g.SPIDs()[0])...)
		pos, _, deg := dec.Record(buf, 0)
		for s := 1; deg == 0; s++ {
			pos, _, deg = dec.Record(buf, s)
		}
		putUint(buf[pos:], cfg.PIDBytes, uint64(g.NumPages()))
		if panics(func() { ents.VID(buf, pos) }) == nil {
			t.Errorf("%s: VID resolved an entry naming page %d of %d", label, g.NumPages(), g.NumPages())
		}
	}
}

// TestDecoderRefusesBadPage: the failures kernels rely on. An entry naming
// a page the graph does not have panics in VID; a record that overruns its
// page panics in Record, before any entry is handed out.
func TestDecoderRefusesBadPage(t *testing.T) {
	for _, cfg := range []Config{ScaledConfig(2, 2, 512), ScaledConfig(3, 3, 512), ScaledConfig(8, 8, 512), tinyFields} {
		g, err := Build(codecSource(cfg, rand.New(rand.NewSource(1))), cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec, pid := g.Decoder(), g.SPIDs()[0]
		buf := append([]byte(nil), g.PageBytes(pid)...)
		pos, _, deg := dec.Record(buf, 0)
		if deg == 0 {
			t.Fatalf("(p=%d,q=%d): slot 0 of the first small page is empty", cfg.PIDBytes, cfg.SlotBytes)
		}
		if uint64(g.NumPages()) <= maxUint(cfg.PIDBytes) {
			putUint(buf[pos:], cfg.PIDBytes, uint64(g.NumPages()))
			if panics(func() { dec.Entries().VID(buf, pos) }) == nil {
				t.Errorf("(p=%d,q=%d): VID resolved an entry naming page %d of %d", cfg.PIDBytes, cfg.SlotBytes, g.NumPages(), g.NumPages())
			}
		}
		putUint(buf[pos-cfg.SizeBytes:], cfg.SizeBytes, uint64(cfg.PageSize/cfg.RIDBytes()))
		if panics(func() { dec.Record(buf, 0) }) == nil {
			t.Errorf("(p=%d,q=%d): Record located a record longer than its page", cfg.PIDBytes, cfg.SlotBytes)
		}
	}
}

// TestValidateRejectsBadAdjacency: Validate must report — not panic on —
// an entry naming a page the graph lacks or a slot its page lacks, with the
// Decoder underneath it.
func TestValidateRejectsBadAdjacency(t *testing.T) {
	for _, cfg := range []Config{ScaledConfig(2, 2, 512), ScaledConfig(3, 3, 512), ScaledConfig(5, 1, 512), ScaledConfig(6, 7, 512)} {
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
			if err := g.Validate(); !errors.Is(err, ErrInvalidPage) {
				t.Errorf("(p=%d,q=%d): Validate of an entry with a bad %s: %v, want ErrInvalidPage", cfg.PIDBytes, cfg.SlotBytes, field, err)
			}
		}
	}
}

// TestValidateRejectsMisnumberedSlot: kernels take a small page's vertex
// from StartVID + slot and never read the slot's VID field, so a store
// whose field disagrees must not load. One slot's VID is changed in an
// otherwise intact graph; Validate, and ReadFile on the store written from
// it (whole-file CRC intact), must both answer ErrInvalidPage.
func TestValidateRejectsMisnumberedSlot(t *testing.T) {
	g, err := Build(figure1Graph(600), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pid := g.SPIDs()[0]
	pg := g.Page(pid)
	s := pg.NumSlots() - 1
	if s < 1 {
		t.Fatalf("first small page has %d slots, want at least 2", s+1)
	}
	vid, _ := pg.Slot(s)
	putUint(g.pages[pid][pg.slotPos(s):], g.cfg.VIDBytes, vid-1) // a VID the page does hold, one slot early
	if err := g.Validate(); !errors.Is(err, ErrInvalidPage) {
		t.Fatalf("Validate with slot %d renumbered %d -> %d: %v, want ErrInvalidPage", s, vid, vid-1, err)
	}
	path := filepath.Join(t.TempDir(), "misnumbered.gts")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrInvalidPage) {
		t.Fatalf("ReadFile of the misnumbered store: %v, want ErrInvalidPage", err)
	}
}

// TestNeighborsOfDoesNotAllocate: the per-vertex walk hands each entry to
// fn as it decodes it, large vertices included.
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

// FuzzAdjDecode hands the Decoder and the field-by-field decode arbitrary
// page bytes under arbitrary widths: they must agree on every slot that
// fits behind the page header — same VIDs and pages, or both fail — and,
// the page's capacity being clipped, neither may read past it.
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
		g.dec = newDecoder(&g.cfg, g.rvt)
		pg := NewPage(buf, &g.cfg)
		for s := 0; s < min(pg.NumSlots(), (cfg.PageSize-headerSize)/cfg.SlotSize()); s++ {
			sameOutcome(t, g, pg, s, fmt.Sprintf("(p=%d,q=%d,vid=%d,off=%d,sz=%d)",
				cfg.PIDBytes, cfg.SlotBytes, cfg.VIDBytes, cfg.OffBytes, cfg.SizeBytes))
		}
	})
}

// BenchmarkAdjDecode prices one adjacency entry's RID→VID decode on each
// preset and on an entry wider than 8 bytes: through the per-entry form
// (At + VIDOf: a width switch per field) and through the Decoder, each
// summing the VIDs of a whole graph the way a scan would.
func BenchmarkAdjDecode(b *testing.B) {
	scan := func(b *testing.B, g *Graph, record func(pg Page, s int) uint64) {
		b.ReportAllocs()
		var sum uint64
		for i := 0; i < b.N; i++ {
			for pid := 0; pid < g.NumPages(); pid++ {
				pg := g.Page(PageID(pid))
				for s, n := 0, pg.NumSlots(); s < n; s++ {
					sum += record(pg, s)
				}
			}
		}
		adjDecodeSink = sum
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(g.NumEdges())*float64(b.N)), "ns/edge")
	}
	for _, cfg := range []Config{ScaledConfig(2, 2, 4096), ScaledConfig(3, 3, 4096), ScaledConfig(2, 4, 4096), ScaledConfig(4, 2, 4096), ScaledConfig(5, 5, 4096)} {
		g, err := Build(randomGraph(rand.New(rand.NewSource(7)), 4096, 32, 600), cfg)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("p%dq%d", cfg.PIDBytes, cfg.SlotBytes)
		b.Run(name+"/per-entry", func(b *testing.B) {
			scan(b, g, func(pg Page, s int) (sum uint64) {
				adj := pg.Adj(s)
				for e := 0; e < adj.Len(); e++ {
					sum += g.VIDOf(adj.At(e))
				}
				return sum
			})
		})
		b.Run(name+"/decoder", func(b *testing.B) {
			dec := g.Decoder()
			ents := dec.Entries()
			scan(b, g, func(pg Page, s int) (sum uint64) {
				buf := pg.Bytes()
				for pos, end, _ := dec.Record(buf, s); pos < end; pos += dec.Width() {
					vid, _ := ents.VID(buf, pos)
					sum += vid
				}
				return sum
			})
		})
	}
}

var adjDecodeSink uint64
