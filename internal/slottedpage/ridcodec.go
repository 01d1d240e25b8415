package slottedpage

import "encoding/binary"

// This file is the adjacency codec at machine width. Decoding happens where
// the result is used: a page kernel asks the graph's Decoder where slot i's
// record lies (Record) and resolves each entry through the RVT as its loop
// reaches it (Entries.VID = RVT[ADJ_PID].StartVID + ADJ_OFF, paper Appendix
// A) — fixed-width loads and one RVT add, as a warp lane does it — so
// nothing is materialised between the page bytes and the kernel's write.
// Every kernel and topology scan decodes through it; Page.Slot, AdjView.At
// and Graph.VIDOf remain as the field-by-field form the tests compare it
// with. Encoding (Build) is putRow.

// Decoder reads records and adjacency entries out of one graph's page
// bytes. A Graph builds its decoder once (Build, Read) and hands it out
// through Graph.Decoder; it is immutable and safe for concurrent use. Its
// per-entry half is Entries, a value an entry loop takes once and keeps in
// registers.
//
// It leans on three facts Graph.Validate enforces. A small page's slot i
// holds vertex StartVID + i, so callers take a slot's vertex from StartVID
// and never read the slot's VID field. Every record ends at or before the
// page's slot directory, which holds at least one slot of at least 3
// bytes, so the 4 bytes that START at any entry field are in the page: a
// (2,2) entry is one such 32-bit load, and any other ADJ_OFF is the one at
// its own first byte, masked to the field (RID.Slot is 32 bits wide, so a
// wider ADJ_OFF is cut to its low 4 bytes). And every record starts behind
// the 8-byte page header, so the 8 bytes that END at any field's last byte
// are in the page too: any other ADJ_PID, and OFF and ADJLIST_SZ at any
// width, is one such load, shifted right until only the field is left.
// Which form an entry takes is decided here, once.
type Decoder struct {
	Records           // where slot i's record lies
	startVID []uint64 // RVT[pid].StartVID, flat

	pq22 bool // p = q = 2: an entry is one 32-bit word, ADJ_PID its low half
	// Otherwise ADJ_PID is the 8 bytes ending with it and ADJ_OFF the 4
	// bytes starting with it.
	pidAt    int    // p-8
	pidShift uint   // 64-8p
	slotAt   int    // p
	slotMask uint32 // low min(q,4) bytes
}

// Records locates records in one graph's page bytes. It is the record half
// of the graph's Decoder, a value a page walker copies once per page so
// that each slot's lookup reads its geometry from the walker itself.
type Records struct {
	// Slot i's OFF field ends i*slotSize bytes before the page's end; the
	// record at OFF opens with ADJLIST_SZ and may reach as far as slot 0.
	offAt, slotSize     int // offAt = PageSize-8
	sizeBytes           int
	offShift, sizeShift uint // 64-8*OffBytes, 64-8*SizeBytes
	w                   int  // entry width p+q
	limit               int  // PageSize-SlotSize
}

// newDecoder builds the decoder for pages laid out by cfg and resolved
// through rvt.
func newDecoder(cfg *Config, rvt []RVTEntry) Decoder {
	p, q := cfg.PIDBytes, cfg.SlotBytes
	d := Decoder{
		Records: Records{
			offAt:     cfg.PageSize - 8,
			slotSize:  cfg.SlotSize(),
			sizeBytes: cfg.SizeBytes,
			offShift:  uint(64 - 8*cfg.OffBytes),
			sizeShift: uint(64 - 8*cfg.SizeBytes),
			w:         p + q,
			limit:     cfg.PageSize - cfg.SlotSize(),
		},
		startVID: make([]uint64, len(rvt)),
		pq22:     p == 2 && q == 2,
		pidAt:    p - 8,
		pidShift: uint(64 - 8*p),
		slotAt:   p,
		slotMask: uint32(maxUint(min(q, 4))),
	}
	for i, e := range rvt {
		d.startVID[i] = e.StartVID
	}
	return d
}

// Width is the byte width of one adjacency entry: the step of a loop over
// a record's [pos, end).
func (r *Records) Width() int { return r.w }

// StartVID is RVT[pid].StartVID: the vertex in slot 0 of page pid. Slot i
// of a small page holds vertex StartVID + i; a large page's only slot
// holds StartVID itself.
func (d *Decoder) StartVID(pid PageID) uint64 { return d.startVID[pid] }

// Record locates the record of slot `slot` in the page bytes buf: its
// entries occupy buf[pos:end] in steps of Width, deg of them. It panics if
// the record starts inside the page header or reaches into the page's last
// SlotSize bytes — slot 0's own — so every pos in [pos, end) may go to
// Entries.VID.
func (r *Records) Record(buf []byte, slot int) (pos, end, deg int) {
	off := int(binary.LittleEndian.Uint64(buf[r.offAt-slot*r.slotSize:]) >> (r.offShift & 63))
	deg = int(binary.LittleEndian.Uint64(buf[off+r.sizeBytes-8:]) >> (r.sizeShift & 63))
	pos = off + r.sizeBytes
	end = pos + deg*r.w
	// deg is tested by itself first: an 8-byte ADJLIST_SZ can make it
	// negative, or large enough that deg*w wraps.
	if off < headerSize || uint(deg) > uint(r.limit) || end > r.limit {
		panic("slottedpage: record outside its page's record area")
	}
	return pos, end, deg
}

// Entries resolves one graph's adjacency entries. An entry loop takes it
// once from the graph's Decoder, before the loop, and calls VID per entry:
//
//	ents, w := dec.Entries(), dec.Width()
//	for ; pos < end; pos += w {
//		nvid, npid := ents.VID(buf, pos)
//		...
//	}
//
// It is two words of state the compiler keeps in registers across the
// loop — the RVT's StartVID column and, for any layout but (2,2), the
// decoder whose two-load geometry VID reads — so a (2,2) entry, the
// default layout's, costs one 32-bit load and one RVT add, with no field of
// the decoder reloaded per entry. A struct of more than four fields or 32
// bytes would not stay in registers: it is copied for every inlined call.
type Entries struct {
	startVID []uint64
	two      *Decoder // nil: p = q = 2
}

// Entries returns the graph's entry reader.
func (d *Decoder) Entries() Entries {
	if d.pq22 {
		return Entries{startVID: d.startVID}
	}
	return Entries{startVID: d.startVID, two: d}
}

// VID resolves the adjacency entry at buf[pos:] — pos from Record — to the
// logical ID of the vertex it names and the page that vertex lives in (what
// a traversal kernel proposes in its nextPIDSet). ADJ_OFF is cut to
// RID.Slot's 32 bits, as AdjView.At cuts it. An entry naming a page the
// graph does not have panics on the StartVID table's bounds check.
func (e Entries) VID(buf []byte, pos int) (vid uint64, pid PageID) {
	var p, slot uint64
	if e.two == nil {
		x := binary.LittleEndian.Uint32(buf[pos:])
		p, slot = uint64(x&0xffff), uint64(x>>16)
	} else {
		p = binary.LittleEndian.Uint64(buf[pos+e.two.pidAt:]) >> (e.two.pidShift & 63)
		slot = uint64(binary.LittleEndian.Uint32(buf[pos+e.two.slotAt:]) & e.two.slotMask)
	}
	return e.startVID[p] + slot, PageID(p)
}

// Words returns the RVT's StartVID column and true when an entry is one
// 32-bit word, the (2,2) layout. The kernels' hot entry loops (the five that
// kernels.TestHotCallsInline names) ask once per record and then walk
// b := buf[pos:end] four bytes at a time, resolving each entry with
// WordVID: the loop holds no layout branch and makes no call. Every other
// layout answers false and keeps the VID loop.
func (e Entries) Words() (startVID []uint64, ok bool) { return e.startVID, e.two == nil }

// WordVID is VID for a (2,2) entry, the first 4 bytes of b: ADJ_PID is the
// word's low half and ADJ_OFF its high half.
func WordVID(startVID []uint64, b []byte) (vid uint64, pid PageID) {
	x := binary.LittleEndian.Uint32(b)
	return startVID[x&0xffff] + uint64(x>>16), PageID(x & 0xffff)
}

// putRow writes an adjacency entry for every vertex of row, from the start
// of b: the vertex's home RID as ADJ_PID‖ADJ_OFF, byte for byte what a
// putUint per field writes. Build has checked that every home fits its
// fields (its pages are addressable, its slot counts capped), so a (2,2)
// entry is one 32-bit store with no check: Mutable.ApplyBatch rebuilds
// every page per commit, and this loop is most of that. Other widths go
// through putUint.
func putRow(b []byte, cfg *Config, row []uint64, homePID, homeSlot []uint32) {
	if cfg.PIDBytes == 2 && cfg.SlotBytes == 2 {
		b = b[:4*len(row)]
		for i, d := range row {
			binary.LittleEndian.PutUint32(b[4*i:], homePID[d]|homeSlot[d]<<16)
		}
		return
	}
	p, w := cfg.PIDBytes, cfg.RIDBytes()
	for i, d := range row {
		putUint(b[i*w:], p, uint64(homePID[d]))
		putUint(b[i*w+p:], cfg.SlotBytes, uint64(homeSlot[d]))
	}
}
