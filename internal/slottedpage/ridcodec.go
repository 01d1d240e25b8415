package slottedpage

import "encoding/binary"

// This file is the adjacency codec at machine width. Decoding happens where
// the result is used: a page kernel asks the graph's Decoder where slot i's
// record lies (Record) and resolves each entry through the RVT as its loop
// reaches it (VID = RVT[ADJ_PID].StartVID + ADJ_OFF, paper Appendix A) —
// one fixed-width load and one RVT add, as a warp lane does it — so nothing
// is materialised between the page bytes and the kernel's write. Every
// kernel and topology scan decodes through it; Page.Slot, AdjView.At and
// Graph.VIDOf remain as the field-by-field form the tests compare it with.
// Encoding (Build) is putRow.

// Decoder reads records and adjacency entries out of one graph's page
// bytes. A Graph builds its decoder once (Build, Read) and hands it out
// through Graph.Decoder; it is immutable and safe for concurrent use.
//
// It leans on three facts Graph.Validate enforces. A small page's slot i
// holds vertex StartVID + i, so callers take a slot's vertex from StartVID
// and never read the slot's VID field. Every record ends at or before the
// page's slot directory, which holds at least one slot, so the SlotSize
// bytes behind any record belong to the page: when an entry is at most 8
// bytes wide and w + SlotSize >= 8, an 8-byte load at the entry's first
// byte stays inside the page whichever entry it is, and the entry is that
// word masked and shifted. And every record starts behind the 8-byte page
// header, so the 8 bytes that END at any field's last byte are in the page
// too: every other field — a wider entry's ADJ_PID and ADJ_OFF, OFF and
// ADJLIST_SZ at any width — is one such load, shifted right until only the
// field is left. Which of the two an entry takes is decided here, once.
type Decoder struct {
	startVID []uint64 // RVT[pid].StartVID, flat

	w        int    // entry width p+q: ADJ_PID at [pos, pos+p), ADJ_OFF behind it
	word     bool   // w <= 8 && w+SlotSize >= 8: the entry is one load at pos
	pidMask  uint64 // word: low p bytes
	slotAt   uint   // word: 8p, ADJ_OFF's bit position
	slotMask uint64 // low min(q,4) bytes — RID.Slot is 32 bits wide
	// Otherwise two loads, of the 8 bytes ending with each field.
	pidAt               int  // p-8
	pidShift, slotShift uint // 64-8p, 64-8q

	// Slot i's OFF field ends i*slotSize bytes before the page's end; the
	// record at OFF opens with ADJLIST_SZ and may reach as far as slot 0.
	offAt, slotSize     int // offAt = PageSize-8
	sizeBytes           int
	offShift, sizeShift uint // 64-8*OffBytes, 64-8*SizeBytes
	limit               int  // PageSize-SlotSize
}

// newDecoder builds the decoder for pages laid out by cfg and resolved
// through rvt.
func newDecoder(cfg *Config, rvt []RVTEntry) Decoder {
	p, q, w := cfg.PIDBytes, cfg.SlotBytes, cfg.RIDBytes()
	d := Decoder{
		startVID:  make([]uint64, len(rvt)),
		w:         w,
		word:      w <= 8 && w+cfg.SlotSize() >= 8,
		pidMask:   maxUint(p),
		slotAt:    uint(8 * p),
		slotMask:  maxUint(min(q, 4)),
		pidAt:     p - 8,
		pidShift:  uint(64 - 8*p),
		slotShift: uint(64 - 8*q),
		offAt:     cfg.PageSize - 8,
		slotSize:  cfg.SlotSize(),
		sizeBytes: cfg.SizeBytes,
		offShift:  uint(64 - 8*cfg.OffBytes),
		sizeShift: uint(64 - 8*cfg.SizeBytes),
		limit:     cfg.PageSize - cfg.SlotSize(),
	}
	for i, e := range rvt {
		d.startVID[i] = e.StartVID
	}
	return d
}

// Width is the byte width of one adjacency entry: the step of a loop over
// a record's [pos, end).
func (d *Decoder) Width() int { return d.w }

// StartVID is RVT[pid].StartVID: the vertex in slot 0 of page pid. Slot i
// of a small page holds vertex StartVID + i; a large page's only slot
// holds StartVID itself.
func (d *Decoder) StartVID(pid PageID) uint64 { return d.startVID[pid] }

// Record locates the record of slot `slot` in the page bytes buf: its
// entries occupy buf[pos:end] in steps of Width, deg of them. It panics if
// the record starts inside the page header or reaches into the page's last
// SlotSize bytes — slot 0's own — so every pos in [pos, end) may go to VID.
func (d *Decoder) Record(buf []byte, slot int) (pos, end, deg int) {
	off := int(binary.LittleEndian.Uint64(buf[d.offAt-slot*d.slotSize:]) >> (d.offShift & 63))
	deg = int(binary.LittleEndian.Uint64(buf[off+d.sizeBytes-8:]) >> (d.sizeShift & 63))
	pos = off + d.sizeBytes
	end = pos + deg*d.w
	// deg is tested by itself first: an 8-byte ADJLIST_SZ can make it
	// negative, or large enough that deg*w wraps.
	if off < headerSize || uint(deg) > uint(d.limit) || end > d.limit {
		panic("slottedpage: record outside its page's record area")
	}
	return pos, end, deg
}

// VID resolves the adjacency entry at buf[pos:] — pos from Record — to the
// logical ID of the vertex it names and the page that vertex lives in (what
// a traversal kernel proposes in its nextPIDSet). ADJ_OFF is cut to
// RID.Slot's 32 bits, as AdjView.At cuts it. An entry naming a page the
// graph does not have panics on the StartVID table's bounds check.
func (d *Decoder) VID(buf []byte, pos int) (vid uint64, pid PageID) {
	var p, slot uint64
	if d.word {
		e := binary.LittleEndian.Uint64(buf[pos:])
		p, slot = e&d.pidMask, e>>(d.slotAt&63)
	} else {
		p = binary.LittleEndian.Uint64(buf[pos+d.pidAt:]) >> (d.pidShift & 63)
		slot = binary.LittleEndian.Uint64(buf[pos+d.w-8:]) >> (d.slotShift & 63)
	}
	return d.startVID[p] + slot&d.slotMask, PageID(p)
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
