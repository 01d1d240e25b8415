package slottedpage

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Page-level integrity. The store file's trailing CRC covers the whole
// serialization; per-page checksums additionally let the engine verify each
// page as it comes off storage (and detect in-flight corruption injected by
// the fault layer) without re-reading the file.

// ErrPageChecksum reports that one page's bytes fail CRC validation.
var ErrPageChecksum = errors.New("slottedpage: page checksum mismatch")

// ErrInvalidPage reports that a page's structure is malformed: out-of-range
// slot count, record offsets, or adjacency sizes.
var ErrInvalidPage = errors.New("slottedpage: invalid page structure")

// PageChecksum is the CRC-32 (IEEE) of a page's raw bytes.
func PageChecksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// PageChecksum returns the recorded checksum of page pid.
func (g *Graph) PageChecksum(pid PageID) uint32 { return g.sums[pid] }

// VerifyPageBytes checks b against page pid's recorded checksum — the
// engine's defense against pages damaged between storage and GPU.
func (g *Graph) VerifyPageBytes(pid PageID, b []byte) error {
	if got, want := PageChecksum(b), g.sums[pid]; got != want {
		return fmt.Errorf("%w: page %d has %#08x, want %#08x", ErrPageChecksum, pid, got, want)
	}
	return nil
}

// computeChecksums (re)fills the per-page checksum table from page bytes.
func (g *Graph) computeChecksums() {
	g.sums = make([]uint32, len(g.pages))
	for i, pg := range g.pages {
		g.sums[i] = PageChecksum(pg)
	}
}

// ValidatePage structurally validates raw page bytes under cfg without
// panicking or over-reading: header sanity, slot area within bounds, every
// record (offset, size, adjacency list) inside the free space between
// header and slot area. A page that passes can be walked with
// Page.Slot/Page.Adj/AdjView.At safely. All arithmetic is done in int64 so
// hostile field values cannot overflow int on 32-bit builds.
func ValidatePage(buf []byte, cfg *Config) error {
	if len(buf) != cfg.PageSize {
		return fmt.Errorf("%w: %d bytes, config says %d", ErrInvalidPage, len(buf), cfg.PageSize)
	}
	if k := Kind(buf[4]); k != SmallPage && k != LargePage {
		return fmt.Errorf("%w: unknown page kind %d", ErrInvalidPage, buf[4])
	}
	pg := Page{buf: buf, cfg: cfg}
	slots := int64(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
	if pg.Kind() == LargePage && slots != 1 {
		return fmt.Errorf("%w: large page with %d slots", ErrInvalidPage, slots)
	}
	slotArea := int64(cfg.PageSize) - slots*int64(cfg.SlotSize())
	if slotArea < headerSize {
		return fmt.Errorf("%w: %d slots overrun the page", ErrInvalidPage, slots)
	}
	for i := int64(0); i < slots; i++ {
		_, off := pg.Slot(int(i))
		o := int64(off)
		if o < headerSize || o+int64(cfg.SizeBytes) > slotArea {
			return fmt.Errorf("%w: slot %d record offset %d out of bounds", ErrInvalidPage, i, off)
		}
		n := int64(getUint(buf[o:], cfg.SizeBytes))
		if end := o + int64(cfg.SizeBytes) + n*int64(cfg.RIDBytes()); end > slotArea {
			return fmt.Errorf("%w: slot %d adjacency list (%d entries) overruns record area", ErrInvalidPage, i, n)
		}
	}
	return nil
}

// Validate cross-checks the whole graph: every page structurally valid and
// consistent with its side tables, every home RID and every adjacency
// entry pointing at a real record, every slot holding the VID its position
// implies (a small page's slot i is vertex StartVID + i — the Decoder's
// callers take the vertex from there, never from the slot). A graph that
// passes can be traversed (NeighborsOf, engine kernels) without panics no
// matter where its bytes came from. Read calls this, so a decoded store is
// safe by construction.
func (g *Graph) Validate() error {
	n := len(g.pages)
	if len(g.rvt) != n || len(g.kinds) != n {
		return fmt.Errorf("%w: %d pages but %d RVT entries, %d kinds", ErrInvalidPage, n, len(g.rvt), len(g.kinds))
	}
	if uint64(len(g.homePID)) != g.numVertices || uint64(len(g.homeSlot)) != g.numVertices {
		return fmt.Errorf("%w: %d vertices but %d/%d home entries",
			ErrInvalidPage, g.numVertices, len(g.homePID), len(g.homeSlot))
	}
	slotCount := make([]uint64, n)
	for pid, buf := range g.pages {
		if err := ValidatePage(buf, &g.cfg); err != nil {
			return fmt.Errorf("page %d: %w", pid, err)
		}
		pg := Page{buf: buf, cfg: &g.cfg}
		if pg.Kind() != g.kinds[pid] {
			return fmt.Errorf("%w: page %d kind byte %v disagrees with kind table %v",
				ErrInvalidPage, pid, pg.Kind(), g.kinds[pid])
		}
		if lp := g.rvt[pid].LPSeq >= 0; lp != (g.kinds[pid] == LargePage) {
			return fmt.Errorf("%w: page %d LPSeq %d disagrees with kind %v",
				ErrInvalidPage, pid, g.rvt[pid].LPSeq, g.kinds[pid])
		}
		slotCount[pid] = uint64(pg.NumSlots())
		// Every slot's VID must match RVT translation and stay in range.
		start := g.rvt[pid].StartVID
		for s := 0; s < pg.NumSlots(); s++ {
			vid, _ := pg.Slot(s)
			want := start
			if g.kinds[pid] == SmallPage {
				want = start + uint64(s)
			}
			if vid != want || vid >= g.numVertices {
				return fmt.Errorf("%w: page %d slot %d holds VID %d, want %d (< %d vertices)",
					ErrInvalidPage, pid, s, vid, want, g.numVertices)
			}
		}
	}
	for v, pid := range g.homePID {
		if uint64(pid) >= uint64(n) || uint64(g.homeSlot[v]) >= slotCount[pid] {
			return fmt.Errorf("%w: vertex %d home RID (%d,%d) out of range", ErrInvalidPage, v, pid, g.homeSlot[v])
		}
	}
	// Every adjacency entry must resolve to a real record: a page the
	// graph has and a slot that page holds. Entries are read one by one
	// through AdjView.At — the form the Decoder is tested against, so the
	// check shares no code with what it protects.
	for pid := range g.pages {
		pg := g.Page(PageID(pid))
		for s := 0; s < pg.NumSlots(); s++ {
			adj := pg.Adj(s)
			for i := 0; i < adj.Len(); i++ {
				if r := adj.At(i); uint64(r.PID) >= uint64(n) || uint64(r.Slot) >= slotCount[r.PID] {
					return fmt.Errorf("%w: page %d slot %d entry %d targets RID (%d,%d) out of range",
						ErrInvalidPage, pid, s, i, r.PID, r.Slot)
				}
			}
		}
	}
	return nil
}
