package slottedpage

import (
	"encoding/binary"
	"fmt"
)

// This file is the adjacency-entry codec at machine width. Decoding is one
// bulk pass over a record: each entry is read with a single load and
// resolved through the RVT (VID = RVT[ADJ_PID].StartVID + ADJ_OFF, paper
// Appendix A) — what a page kernel's warp lanes do with one fixed-width load
// and one RVT add each. Every kernel and every topology scan decodes
// adjacency through it; AdjView.At + Graph.VIDOf remain as the per-entry
// form the tests compare it with. Encoding (Build) is putRID.

// AdjVIDs resolves every entry of adj to the logical ID of the vertex it
// names, in adjacency order, and returns them in dst's backing array, grown
// when it is too small — so a caller that hands the result back as the next
// call's dst decodes without allocating. The result is valid until dst is
// next used. adj must be a view into one of g's pages.
//
// An entry naming a page g does not have panics, as the RVT index of the
// per-entry form does; entries are read inside adj's bytes only, so the
// slice bounds of Page.Adj stay the guard against a record that overruns
// its page.
func (g *Graph) AdjVIDs(adj AdjView, dst []uint64) []uint64 {
	dst = sized(dst, adj.n)
	if bad := decodeVIDs(adj, g.rvt, dst); bad >= 0 {
		panic(fmt.Sprintf("slottedpage: adjacency entry %d names page %d of %d", bad, adj.PID(bad), len(g.rvt)))
	}
	return dst
}

// sized returns buf resliced to n elements, reallocating (with headroom, so
// a scan over growing records settles quickly) when its capacity is short.
func sized(buf []uint64, n int) []uint64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]uint64, n, max(n, 2*cap(buf)))
}

// decodeVIDs fills dst with the VIDs of adj's first len(dst) entries and
// returns -1, or stops at the first entry whose page ID is outside rvt and
// returns its index. The explicit range test is the bounds check the RVT
// index needs anyway; spelling it out lets Validate report a bad entry
// instead of panicking.
//
// The widths come from the graph's own Config. A (2,2) entry — what
// PageConfigFor gives every dataset but RMAT30–32 — is one 32-bit load. Any
// other entry of up to 8 bytes, which covers the (3,3), (2,4) and (4,2)
// presets, is one 64-bit load split by a mask and a shift; that load must
// stay inside adj, so it stops where fewer than 8 bytes remain. What is
// left — a record's last entry or two, and every entry wider than 8 bytes —
// goes field by field through getUint.
func decodeVIDs(adj AdjView, rvt []RVTEntry, dst []uint64) (bad int) {
	buf := adj.buf
	p, q := adj.cfg.PIDBytes, adj.cfg.SlotBytes
	if p == 2 && q == 2 {
		for i := range dst {
			e := binary.LittleEndian.Uint32(buf)
			buf = buf[4:]
			pid := e & 0xffff
			if uint64(pid) >= uint64(len(rvt)) {
				return i
			}
			dst[i] = rvt[pid].StartVID + uint64(e>>16)
		}
		return -1
	}
	// RID.Slot is 32 bits wide, so At drops the high bytes of a wider
	// ADJ_OFF; both loops below do the same.
	i, w := 0, p+q
	if w <= 8 && len(buf) >= 8 {
		shift := uint(8 * p)
		pidMask := uint64(1)<<shift - 1
		slotMask := uint64(1)<<(8*min(q, 4)) - 1
		wide := dst[:min(len(dst), (len(buf)-8)/w+1)]
		for i = range wide {
			e := binary.LittleEndian.Uint64(buf[i*w:])
			pid := e & pidMask
			if pid >= uint64(len(rvt)) {
				return i
			}
			wide[i] = rvt[pid].StartVID + e>>shift&slotMask
		}
		i = len(wide)
		buf = buf[i*w:]
	}
	for ; i < len(dst); i++ {
		pid := getUint(buf, p)
		slot := uint32(getUint(buf[p:], q))
		buf = buf[w:]
		if pid >= uint64(len(rvt)) {
			return i
		}
		dst[i] = rvt[pid].StartVID + uint64(slot)
	}
	return -1
}

// putRID writes one adjacency entry, ADJ_PID‖ADJ_OFF, at the start of b —
// byte for byte what a putUint per field writes. A (2,2) entry is one 32-bit
// store, the mirror of decodeVIDs' load: Mutable.ApplyBatch rebuilds the
// graph for every batch, and two putUint calls per entry were a fifth of that.
// Anything else, a (2,2) field that overflows included, goes through
// putUint, which panics when a value does not fit.
func putRID(b []byte, cfg *Config, pid, slot uint64) {
	if cfg.PIDBytes == 2 && cfg.SlotBytes == 2 && pid <= 0xffff && slot <= 0xffff {
		binary.LittleEndian.PutUint32(b, uint32(pid)|uint32(slot)<<16)
		return
	}
	putUint(b, cfg.PIDBytes, pid)
	putUint(b[cfg.PIDBytes:], cfg.SlotBytes, slot)
}
