// Package bufpool provides the shared host page buffer pool: one
// pinned/ref-counted pool per registered graph, shared by every System
// built over it, so concurrent queries over the same graph keep at most one
// host copy of each hot topology page.
//
// The pool mirrors the paper's main-memory buffer (GTS §3.3, Algorithm 1
// lines 18–26) but is reference-counted so concurrent runs can hold pages
// across a stream without racing eviction. It is the only host-side page
// residency structure: a storage-backed run that is handed no pool builds a
// private one (internal/core). The victim is the *most* recently unpinned
// page: the pool's traffic is cyclic scans (PageRank iterations,
// level-synchronous traversals), under which the least recently used page is
// the next one wanted, while the page just released is the one whose reuse is
// farthest away — so what the pool holds survives to the next scan and the
// hit rate is the paper's B/(S+L) (§3.3), where LRU's is zero. Pins protect
// every page in use, so the victim is never one a stream still reads.
// Replacement is a pure function of the operation sequence, and the pool only
// ever affects *which* reads hit memory, never what a kernel computes.
//
// Pin never blocks. The caller contract is:
//
//	switch p.Pin(pid) {
//	case bufpool.Hit:     // page resident: use it, then Unpin.
//	case bufpool.Load:    // frame reserved for you: read the page from
//	                      // storage, then Ready (success: page is now
//	                      // resident and pinned by you — Unpin when done)
//	                      // or Abort (failure: frame released).
//	case bufpool.Busy:    // another goroutine is loading it: bypass the
//	                      // pool (read storage directly) or retry later.
//	case bufpool.NoFrame: // every frame is pinned or loading: bypass.
//	}
//
// Busy/NoFrame bypass instead of blocking because callers are processes
// inside cooperative simulation environments: a real block while holding
// an env's scheduler turn could deadlock two envs loading each other's
// pages. Same-env duplicate loads are coalesced above the pool by the
// run's inflight table; cross-env duplicates are rare enough that a
// bypass read is cheaper than a cross-env wait protocol.
package bufpool

import (
	"fmt"
	"slices"
	"sync"
)

// PinState is the result of a Pin call.
type PinState int

const (
	// Hit: the page is resident; the refcount was incremented.
	Hit PinState = iota
	// Load: a frame was reserved and pinned for the caller, who must
	// populate it and call Ready (or Abort on failure).
	Load
	// Busy: another caller holds the page's frame in loading state; the
	// caller should bypass the pool or retry after yielding.
	Busy
	// NoFrame: every frame is pinned or loading, so nothing can be
	// evicted to make room; the caller should bypass the pool.
	NoFrame
)

func (s PinState) String() string {
	switch s {
	case Hit:
		return "hit"
	case Load:
		return "load"
	case Busy:
		return "busy"
	case NoFrame:
		return "noframe"
	default:
		return fmt.Sprintf("pinstate(%d)", int(s))
	}
}

// Config configures a Pool.
type Config struct {
	// PageSize is the slotted page size in bytes; must be positive.
	PageSize int64
	// Bytes is the pool budget. The page capacity is Bytes/PageSize,
	// floored, with a minimum of one page.
	Bytes int64
}

// Stats is a point-in-time snapshot of pool counters.
type Stats struct {
	Hits          int64 // Pin calls answered from a resident page
	Loads         int64 // Pin calls granted a Load frame (storage reads through the pool)
	Evictions     int64 // pages evicted (victims to make room, over-budget unpins, Drop)
	PinWaits      int64 // Pin calls denied (Busy or NoFrame) — bypass reads
	Invalidations int64 // frames discarded because a graph mutation superseded their epoch
	Resident      int   // resident pages (loading frames included)
	Pinned        int   // resident pages with refcount > 0 or loading
	ResidentBytes int64 // Resident * PageSize
	BudgetBytes   int64 // current budget (Capacity * PageSize)
	Epoch         uint64
}

type frame struct {
	pid     uint64
	refs    int
	loading bool
	epoch   uint64 // pool epoch the frame's contents belong to
	// prev and next link the frame into the pool's evictable list while it is
	// evictable (resident, unpinned, current epoch); both nil otherwise.
	prev, next *frame
}

// Pool is a ref-counted host page buffer pool. All methods are safe for
// concurrent use. The pool tracks residency and refcounts only — actual
// page bytes live in the storage layer's read path; keeping the pool
// byte-free makes the model-test oracle exact and the pool reusable for
// any fixed-size page population.
type Pool struct {
	mu       sync.Mutex
	pageSize int64
	capacity int // page budget; resident may exceed it transiently when pins outlive a shrink
	frames   map[uint64]*frame
	// evictable is the sentinel of the circular list of evictable frames,
	// ordered by when each was last unpinned: evictable.next is the most
	// recent and so the next victim. A page pinned again leaves the list and
	// re-enters at the recent end at its final Unpin, so the order is total
	// and needs no tiebreak.
	evictable frame
	epoch     uint64 // current graph version; frames from older epochs are stale

	hits, loads, evictions, pinWaits, invalidations int64
}

// New builds a pool. The capacity is cfg.Bytes/cfg.PageSize pages,
// minimum one.
func New(cfg Config) (*Pool, error) {
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("bufpool: page size must be positive, got %d", cfg.PageSize)
	}
	capacity := int(cfg.Bytes / cfg.PageSize)
	if capacity < 1 {
		capacity = 1
	}
	p := &Pool{pageSize: cfg.PageSize, capacity: capacity, frames: make(map[uint64]*frame)}
	p.evictable.prev, p.evictable.next = &p.evictable, &p.evictable
	return p, nil
}

// markEvictable links f in at the recent end of the evictable list.
func (p *Pool) markEvictable(f *frame) {
	f.prev, f.next = &p.evictable, p.evictable.next
	f.next.prev = f
	p.evictable.next = f
}

// unlink withdraws f from the evictable list: it was pinned, or is being evicted.
func (p *Pool) unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// evict evicts the most recently unpinned page; false means no page is
// evictable.
func (p *Pool) evict() bool {
	f := p.evictable.next
	if f == &p.evictable {
		return false
	}
	p.unlink(f)
	delete(p.frames, f.pid)
	p.evictions++
	return true
}

// Pin requests the page. See the package comment for the state contract.
func (p *Pool) Pin(pid uint64) PinState {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[pid]; ok {
		if f.loading || f.epoch != p.epoch {
			// Loading, or pinned with contents from a superseded graph
			// version (stale unpinned frames are evicted by AdvanceEpoch,
			// so a stale frame here is necessarily pinned): bypass.
			p.pinWaits++
			return Busy
		}
		if f.refs == 0 {
			p.unlink(f)
		}
		f.refs++
		p.hits++
		return Hit
	}
	// Make room for a new frame.
	for len(p.frames) >= p.capacity {
		if !p.evict() {
			p.pinWaits++
			return NoFrame
		}
	}
	p.frames[pid] = &frame{pid: pid, refs: 1, loading: true, epoch: p.epoch}
	p.loads++
	return Load
}

// Ready marks a Load frame populated. The caller still holds its pin.
func (p *Pool) Ready(pid uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pid]
	if !ok || !f.loading {
		panic(fmt.Sprintf("bufpool: Ready(%d) without a loading frame", pid))
	}
	f.loading = false
}

// Abort releases a Load frame whose population failed. The pin is
// dropped and the page is not resident afterwards.
func (p *Pool) Abort(pid uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pid]
	if !ok || !f.loading {
		panic(fmt.Sprintf("bufpool: Abort(%d) without a loading frame", pid))
	}
	delete(p.frames, pid)
}

// Unpin drops one reference. When the count reaches zero the page becomes
// evictable — or is evicted immediately if a shrink left the pool over
// budget.
func (p *Pool) Unpin(pid uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pid]
	if !ok || f.refs <= 0 || f.loading {
		panic(fmt.Sprintf("bufpool: Unpin(%d) without a matching Pin", pid))
	}
	f.refs--
	if f.refs > 0 {
		return
	}
	if f.epoch != p.epoch {
		// The pin outlived a graph mutation: the frame's bytes belong to a
		// superseded epoch, so it dies here instead of becoming evictable.
		delete(p.frames, pid)
		p.evictions++
		p.invalidations++
		return
	}
	if len(p.frames) > p.capacity {
		delete(p.frames, pid)
		p.evictions++
		return
	}
	p.markEvictable(f)
}

// Drop evicts pid's frame if it is resident and unpinned, and reports
// whether it did: a device carrying the page in its own cache frees the
// frame for a page it lacks. Pinned and loading frames stay, and a
// stale-epoch frame is always pinned (AdvanceEpoch and Unpin discard it).
func (p *Pool) Drop(pid uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[pid]
	if !ok || f.refs > 0 || f.loading {
		return false
	}
	p.unlink(f)
	delete(p.frames, pid)
	p.evictions++
	return true
}

// AdvanceEpoch declares a new graph version: every resident frame from the
// old epoch is stale. Unpinned stale frames are evicted immediately;
// pinned (or loading) frames stay resident for their current holders —
// readers of the old snapshot remain correct — but stop serving hits and
// are discarded at their final Unpin. Returns how many frames were evicted
// eagerly.
func (p *Pool) AdvanceEpoch() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	evicted := 0
	for pid, f := range p.frames {
		if f.refs > 0 || f.loading {
			continue
		}
		p.unlink(f)
		delete(p.frames, pid)
		p.evictions++
		p.invalidations++
		evicted++
	}
	return evicted
}

// Epoch reports the pool's current graph version.
func (p *Pool) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Resize sets a new byte budget (minimum one page) and evicts unpinned
// pages until the pool fits, returning how many it evicted. Pinned pages
// are never evicted; a pool shrunk below its pinned set stays over budget
// until those pins drop, at which point Unpin evicts immediately.
func (p *Pool) Resize(bytes int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	capacity := int(bytes / p.pageSize)
	if capacity < 1 {
		capacity = 1
	}
	p.capacity = capacity
	evicted := 0
	for len(p.frames) > p.capacity && p.evict() {
		evicted++
	}
	return evicted
}

// PageSize reports the configured page size in bytes.
func (p *Pool) PageSize() int64 { return p.pageSize }

// Capacity reports the current page budget.
func (p *Pool) Capacity() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity
}

// Budget reports the current byte budget.
func (p *Pool) Budget() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.capacity) * p.pageSize
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	pinned := 0
	for _, f := range p.frames {
		if f.refs > 0 || f.loading {
			pinned++
		}
	}
	return Stats{
		Hits:          p.hits,
		Loads:         p.loads,
		Evictions:     p.evictions,
		PinWaits:      p.pinWaits,
		Invalidations: p.invalidations,
		Epoch:         p.epoch,
		Resident:      len(p.frames),
		Pinned:        pinned,
		ResidentBytes: int64(len(p.frames)) * p.pageSize,
		BudgetBytes:   int64(p.capacity) * p.pageSize,
	}
}

// ResidentPIDs returns the sorted set of resident page IDs (loading
// frames included). For tests and diagnostics.
func (p *Pool) ResidentPIDs() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]uint64, 0, len(p.frames))
	for pid := range p.frames {
		out = append(out, pid)
	}
	slices.Sort(out)
	return out
}

// CheckInvariants verifies the pool's structural invariants:
// every refcount is non-negative, loading frames are exclusively pinned,
// the evictable list is well linked and holds exactly the resident unpinned set
// (pinned ∉ evictable), and the pool is only over budget when the excess
// is entirely pinned (resident ≤ budget modulo pins). Stress tests call
// it after every operation.
func (p *Pool) CheckInvariants() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	listed := 0
	for f := p.evictable.next; f != &p.evictable; f = f.next {
		if f == nil || f.next == nil || f.next.prev != f {
			return fmt.Errorf("evictable list broken after %d frames", listed)
		}
		if p.frames[f.pid] != f {
			return fmt.Errorf("evictable list tracks non-resident page %d", f.pid)
		}
		if listed++; listed > len(p.frames) {
			return fmt.Errorf("evictable list longer than the %d resident frames", len(p.frames))
		}
	}
	evictable := 0
	for pid, f := range p.frames {
		if f.pid != pid {
			return fmt.Errorf("frame of page %d filed under %d", f.pid, pid)
		}
		if f.refs < 0 {
			return fmt.Errorf("page %d refcount %d < 0", pid, f.refs)
		}
		if f.epoch > p.epoch {
			return fmt.Errorf("page %d has epoch %d beyond pool epoch %d", pid, f.epoch, p.epoch)
		}
		if f.epoch != p.epoch && f.refs == 0 && !f.loading {
			return fmt.Errorf("stale page %d (epoch %d < %d) is unpinned but still resident", pid, f.epoch, p.epoch)
		}
		if f.loading && f.refs != 1 {
			return fmt.Errorf("loading page %d has refcount %d, want 1", pid, f.refs)
		}
		inList := f.next != nil
		if f.refs > 0 || f.loading {
			if inList {
				return fmt.Errorf("pinned page %d is in the evictable set", pid)
			}
			continue
		}
		evictable++
		if !inList {
			return fmt.Errorf("unpinned resident page %d missing from the evictable set", pid)
		}
	}
	if evictable != listed {
		return fmt.Errorf("evictable set size %d, want %d", listed, evictable)
	}
	if len(p.frames) > p.capacity && evictable > 0 {
		return fmt.Errorf("pool over budget (%d resident, capacity %d) with %d evictable pages",
			len(p.frames), p.capacity, evictable)
	}
	return nil
}
