package slottedpage

import (
	"encoding/binary"
	"fmt"
)

// Kind distinguishes small pages (many vertices) from large pages (one
// vertex's adjacency spilled across several pages).
type Kind uint8

// Page kinds.
const (
	SmallPage Kind = 0
	LargePage Kind = 1
)

// String returns "SP" or "LP".
func (k Kind) String() string {
	if k == LargePage {
		return "LP"
	}
	return "SP"
}

// PageID names a page within a store. It is the logical index into the page
// sequence; on disk it is encoded in p bytes inside adjacency entries.
type PageID uint64

// RID is a physical record ID: the page and slot where a vertex's record
// lives (paper Fig. 1: ADJ_PID, ADJ_OFF).
type RID struct {
	PID  PageID
	Slot uint32
}

// getUint reads a little-endian unsigned integer of the given byte width.
// The widths the shipped presets use — 2, 3 and 4 for ADJ_PID/ADJ_OFF, 4 for
// OFF and ADJLIST_SZ, 6 for VID — are fixed-width loads; every other width
// takes getUintGeneric.
func getUint(b []byte, width int) uint64 {
	switch width {
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 3:
		return uint64(binary.LittleEndian.Uint16(b)) | uint64(b[2])<<16
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 6:
		return uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint16(b[4:]))<<32
	}
	return getUintGeneric(b, width)
}

// getUintGeneric is the any-width byte loop: the fallback for widths without
// a fixed-width load, and the oracle the codec tests hold the rest to.
func getUintGeneric(b []byte, width int) uint64 {
	var v uint64
	for i := width - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// putUint writes a little-endian unsigned integer of the given byte width,
// with the same fixed-width cases as getUint. It panics if v does not fit,
// which indicates a builder bug or a graph too large for the configuration.
func putUint(b []byte, width int, v uint64) {
	if width < 8 && v > maxUint(width) {
		panic(fmt.Sprintf("slottedpage: value %d overflows %d-byte field", v, width))
	}
	switch width {
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 3:
		binary.LittleEndian.PutUint16(b, uint16(v))
		b[2] = byte(v >> 16)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 6:
		binary.LittleEndian.PutUint32(b, uint32(v))
		binary.LittleEndian.PutUint16(b[4:], uint16(v>>32))
	default:
		for i := 0; i < width; i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// Page is a read-only view over one slotted page's bytes. The zero Page is
// invalid; obtain pages from a Graph.
type Page struct {
	buf []byte
	cfg *Config
}

// NewPage wraps raw page bytes with their configuration.
func NewPage(buf []byte, cfg *Config) Page {
	if len(buf) != cfg.PageSize {
		panic(fmt.Sprintf("slottedpage: page buffer %d bytes, config says %d", len(buf), cfg.PageSize))
	}
	return Page{buf: buf, cfg: cfg}
}

// Bytes returns the raw page buffer.
func (pg Page) Bytes() []byte { return pg.buf }

// NumSlots reports how many vertex slots the page holds.
func (pg Page) NumSlots() int {
	return int(uint32(pg.buf[0]) | uint32(pg.buf[1])<<8 | uint32(pg.buf[2])<<16 | uint32(pg.buf[3])<<24)
}

// Kind reports whether this is a small or a large page.
func (pg Page) Kind() Kind { return Kind(pg.buf[4]) }

// slotPos returns the byte offset of slot i, counting slots backward from
// the end of the page.
func (pg Page) slotPos(i int) int {
	return pg.cfg.PageSize - (i+1)*pg.cfg.SlotSize()
}

// Slot returns the logical vertex ID and record offset stored in slot i.
func (pg Page) Slot(i int) (vid uint64, off int) {
	p := pg.slotPos(i)
	vid = getUint(pg.buf[p:], pg.cfg.VIDBytes)
	off = int(getUint(pg.buf[p+pg.cfg.VIDBytes:], pg.cfg.OffBytes))
	return vid, off
}

// Adj returns the adjacency-list view of the record at slot i.
func (pg Page) Adj(i int) AdjView {
	_, off := pg.Slot(i)
	n := int(getUint(pg.buf[off:], pg.cfg.SizeBytes))
	start := off + pg.cfg.SizeBytes
	return AdjView{buf: pg.buf[start : start+n*pg.cfg.RIDBytes()], cfg: pg.cfg, n: n}
}

// AdjView is a zero-copy view over an adjacency list's physical record IDs,
// read one entry at a time: the per-entry form the Decoder (ridcodec.go),
// which kernels and scans use, is tested against.
type AdjView struct {
	buf []byte
	cfg *Config
	n   int
}

// Len is the number of adjacency entries (the record's ADJLIST_SZ).
func (a AdjView) Len() int { return a.n }

// At decodes entry i into a physical record ID.
func (a AdjView) At(i int) RID {
	p := i * a.cfg.RIDBytes()
	pid := getUint(a.buf[p:], a.cfg.PIDBytes)
	slot := getUint(a.buf[p+a.cfg.PIDBytes:], a.cfg.SlotBytes)
	return RID{PID: PageID(pid), Slot: uint32(slot)}
}
