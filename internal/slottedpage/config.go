// Package slottedpage implements the slotted page graph format that GTS
// streams to GPUs (paper §2), including the generalized (p,q) physical-ID
// addressing for trillion-scale graphs (paper §6.1).
//
// A graph's topology is a sequence of fixed-size pages. Records (adjacency
// lists) grow forward from the start of a page; slots grow backward from the
// end. A slot holds a vertex's logical ID (VID) and the byte offset of its
// record (OFF). A record holds the adjacency-list length (ADJLIST_SZ)
// followed by the list itself, whose entries are *physical* record IDs: a
// page ID of p bytes (ADJ_PID) and a slot number of q bytes (ADJ_OFF).
//
// Low-degree vertices share a Small Page (SP). A vertex whose adjacency list
// cannot fit in one page spills into a run of Large Pages (LPs), each holding
// a single slot. The RVT side table maps a physical ID back to a logical VID
// in O(1): VID = RVT[ADJ_PID].StartVID + ADJ_OFF (paper Appendix A).
package slottedpage

import "fmt"

// Config fixes the byte-level layout of a slotted page store. The paper's
// experiments use (p=2,q=2) with 1 MB pages for graphs up to RMAT29 and
// (p=3,q=3) with 64 MB pages for RMAT30-32.
type Config struct {
	// PageSize is the fixed size of every page in bytes.
	PageSize int
	// PIDBytes is p, the width of a page ID in an adjacency entry.
	PIDBytes int
	// SlotBytes is q, the width of a slot number in an adjacency entry.
	SlotBytes int
	// VIDBytes is the width of the logical vertex ID stored in a slot.
	// The paper's generalized format uses 6 bytes.
	VIDBytes int
	// OffBytes is the width of the record-offset field in a slot.
	OffBytes int
	// SizeBytes is the width of the ADJLIST_SZ field in a record.
	SizeBytes int
}

// headerSize is the per-page header: slot count (4 bytes), page kind
// (1 byte), reserved (3 bytes).
const headerSize = 8

// maxPageSize caps PageSize at 256 MB — four times the paper's largest
// (64 MB) configuration. The bound keeps a hostile store header from
// demanding arbitrarily large page allocations during decode.
const maxPageSize = 1 << 28

// Config presets matching the paper's Table 3 usage, with page sizes scaled
// so that the scaled-down datasets produce comparable page counts.
func configWith(p, q, pageSize int) Config {
	return Config{PageSize: pageSize, PIDBytes: p, SlotBytes: q, VIDBytes: 6, OffBytes: 4, SizeBytes: 4}
}

// Config22 is the (p=2,q=2) preset the paper uses for RMAT27-29 and the real
// graphs (1 MB pages).
func Config22() Config { return configWith(2, 2, 1<<20) }

// Config33 is the (p=3,q=3) preset the paper uses for RMAT30-32 (64 MB
// pages, the Hadoop-compatible block size).
func Config33() Config { return configWith(3, 3, 64<<20) }

// Config24 and Config42 are the other 6-byte physical-ID configurations from
// the paper's Table 2.
func Config24() Config { return configWith(2, 4, 1<<20) }

// Config42 is the (p=4,q=2) configuration from the paper's Table 2.
func Config42() Config { return configWith(4, 2, 1<<20) }

// ScaledConfig returns a (p,q) config with a custom page size, used by the
// experiment harness to keep page counts realistic on scaled-down graphs.
func ScaledConfig(p, q, pageSize int) Config { return configWith(p, q, pageSize) }

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.PageSize < headerSize+64:
		return fmt.Errorf("slottedpage: page size %d too small", c.PageSize)
	case c.PageSize > maxPageSize:
		return fmt.Errorf("slottedpage: page size %d exceeds limit %d", c.PageSize, maxPageSize)
	case c.PIDBytes < 1 || c.PIDBytes > 8:
		return fmt.Errorf("slottedpage: p = %d out of range [1,8]", c.PIDBytes)
	case c.SlotBytes < 1 || c.SlotBytes > 8:
		return fmt.Errorf("slottedpage: q = %d out of range [1,8]", c.SlotBytes)
	case c.VIDBytes < 1 || c.VIDBytes > 8:
		return fmt.Errorf("slottedpage: VID width %d out of range [1,8]", c.VIDBytes)
	case c.OffBytes < 2 || c.OffBytes > 8:
		return fmt.Errorf("slottedpage: OFF width %d out of range [2,8]", c.OffBytes)
	case c.SizeBytes < 2 || c.SizeBytes > 8:
		return fmt.Errorf("slottedpage: ADJLIST_SZ width %d out of range [2,8]", c.SizeBytes)
	}
	if uint64(c.PageSize) > maxUint(c.OffBytes) {
		return fmt.Errorf("slottedpage: page size %d not addressable by %d-byte OFF", c.PageSize, c.OffBytes)
	}
	return nil
}

// RIDBytes is the width of one adjacency entry (a physical record ID).
func (c Config) RIDBytes() int { return c.PIDBytes + c.SlotBytes }

// SlotSize is the width of one slot (VID + OFF).
func (c Config) SlotSize() int { return c.VIDBytes + c.OffBytes }

// MaxPages is the number of distinct pages addressable by a p-byte page ID.
// At p=8 the true count (2^64) is not representable; the maximum uint64
// stands in, which is unreachable in practice anyway.
func (c Config) MaxPages() uint64 {
	if c.PIDBytes >= 8 {
		return ^uint64(0)
	}
	return maxUint(c.PIDBytes) + 1
}

// MaxSlotNumber is the number of distinct slots addressable by a q-byte slot
// number (saturating at the maximum uint64 for q=8, like MaxPages).
func (c Config) MaxSlotNumber() uint64 {
	if c.SlotBytes >= 8 {
		return ^uint64(0)
	}
	return maxUint(c.SlotBytes) + 1
}

// MaxSlotsPerPage is how many slots physically fit in a page of this size,
// additionally capped by the q-byte slot-number space.
func (c Config) MaxSlotsPerPage() int {
	fit := (c.PageSize - headerSize) / (c.SlotSize() + c.SizeBytes)
	if cap := c.MaxSlotNumber(); uint64(fit) > cap {
		return int(cap)
	}
	return fit
}

// MaxTheoreticalPageSize reproduces the paper's Table 2 derivation: the
// largest useful page size for a configuration, assuming each slot carries
// at minimum its slot (VID+OFF), an ADJLIST_SZ field, and one adjacency
// entry — 6+4+4+6 = 20 bytes per vertex under the paper's widths.
func (c Config) MaxTheoreticalPageSize() uint64 {
	perVertex := uint64(c.SlotSize() + c.SizeBytes + c.RIDBytes())
	return c.MaxSlotNumber() * perVertex
}

// MaxAddressableVertices is the theoretical vertex capacity of the whole
// store: every page filled with the maximum slot count (saturating at the
// maximum uint64 once p+q reaches 8 bytes, where the product is 2^64 or
// more).
func (c Config) MaxAddressableVertices() uint64 {
	if c.PIDBytes+c.SlotBytes >= 8 {
		return ^uint64(0)
	}
	return c.MaxPages() * c.MaxSlotNumber()
}

// capacity is the usable byte space of a page (excluding the header).
func (c Config) capacity() int { return c.PageSize - headerSize }

// recordSize is the byte size of a record holding deg adjacency entries.
func (c Config) recordSize(deg int) int { return c.SizeBytes + deg*c.RIDBytes() }

// maxSPDegree is the largest degree that still fits in a single (empty)
// small page alongside its slot.
func (c Config) maxSPDegree() int {
	return (c.capacity() - c.SlotSize() - c.SizeBytes) / c.RIDBytes()
}

// lpEntriesPerPage is how many adjacency entries one large page holds.
func (c Config) lpEntriesPerPage() int { return c.maxSPDegree() }

func maxUint(width int) uint64 {
	if width >= 8 {
		return ^uint64(0)
	}
	return (uint64(1) << (8 * width)) - 1
}
