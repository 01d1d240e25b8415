package hw

import (
	"container/list"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// ErrOutOfMemory reports that a host-memory allocation exceeded the
// machine's main memory — the outcome the paper tabulates as "O.O.M." for
// the baseline systems (Fig. 6, Fig. 7).
var ErrOutOfMemory = errors.New("hw: out of main memory")

// Host accounts main-memory usage for one machine.
type Host struct {
	capacity int64
	used     int64
}

// NewHost returns a host-memory accountant with the given capacity.
func NewHost(capacity int64) *Host { return &Host{capacity: capacity} }

// Alloc reserves n bytes of main memory.
func (h *Host) Alloc(n int64) error {
	if h.used+n > h.capacity {
		return fmt.Errorf("%w: need %d, %d free", ErrOutOfMemory, n, h.capacity-h.used)
	}
	h.used += n
	return nil
}

// Free releases n bytes.
func (h *Host) Free(n int64) {
	h.used -= n
	if h.used < 0 {
		panic("hw: Host.Free released more than allocated")
	}
}

// Used reports allocated bytes; Capacity the total.
func (h *Host) Used() int64     { return h.used }
func (h *Host) Capacity() int64 { return h.capacity }

// BufferPool is the device-memory topology page cache (paper §3.3, Algorithm
// 1 line 16): pages streamed to a GPU are kept in its spare memory,
// LRU-evicted when full, so re-accessed pages skip the PCI-E copy. (The
// host-side page buffer is internal/bufpool.)
type BufferPool struct {
	capacity int // in pages; 0 means unbounded (whole graph fits)
	entries  map[uint64]*list.Element
	lru      *list.List // front = most recently used; values are page IDs
}

// NewBufferPool returns a pool holding at most capacity pages
// (0 = unbounded).
func NewBufferPool(capacity int) *BufferPool {
	return &BufferPool{capacity: capacity, entries: make(map[uint64]*list.Element), lru: list.New()}
}

// Contains reports whether pid is buffered, updating recency.
func (b *BufferPool) Contains(pid uint64) bool {
	e, ok := b.entries[pid]
	if ok {
		b.lru.MoveToFront(e)
	}
	return ok
}

// Insert adds pid, evicting the least recently used page if full.
func (b *BufferPool) Insert(pid uint64) {
	if e, ok := b.entries[pid]; ok {
		b.lru.MoveToFront(e)
		return
	}
	if b.capacity > 0 && b.lru.Len() >= b.capacity {
		old := b.lru.Back()
		b.lru.Remove(old)
		delete(b.entries, old.Value.(uint64))
	}
	b.entries[pid] = b.lru.PushFront(pid)
}

// Shrink lowers the page limit to newCap (minimum 1 — use nil to disable
// a cache entirely), evicting LRU pages beyond it, and returns how many
// pages it evicted. Used by the device-OOM degradation path, which halves
// the page cache instead of abandoning it.
func (b *BufferPool) Shrink(newCap int) int {
	if newCap < 1 {
		newCap = 1
	}
	b.capacity = newCap
	evicted := 0
	for b.lru.Len() > b.capacity {
		old := b.lru.Back()
		b.lru.Remove(old)
		delete(b.entries, old.Value.(uint64))
		evicted++
	}
	return evicted
}

// Grow raises the page limit to newCap (no-op if the pool is already at
// least that large). Used when the OOM degradation's transient memory
// pressure has passed and the cache budget is restored.
func (b *BufferPool) Grow(newCap int) {
	if newCap > b.capacity {
		b.capacity = newCap
	}
}

// Len reports the buffered page count.
func (b *BufferPool) Len() int { return b.lru.Len() }

// Machine assembles a full workstation bound to one simulation environment.
type Machine struct {
	Env     *sim.Env
	Spec    MachineSpec
	GPUs    []*GPU
	Host    *Host
	Storage *Array // nil when the graph is served from main memory
}

// NewMachine instantiates spec's devices in env. pageSize sets the storage
// array's page layout; pass 0 when no storage is configured.
func NewMachine(env *sim.Env, spec MachineSpec, pageSize int64) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Env: env, Spec: spec, Host: NewHost(spec.MainMemory)}
	for i, g := range spec.GPUs {
		m.GPUs = append(m.GPUs, NewGPU(env, g, spec.PCIe, i))
	}
	if len(spec.Storage) > 0 {
		if pageSize <= 0 {
			return nil, fmt.Errorf("hw: storage configured but page size %d invalid", pageSize)
		}
		m.Storage = NewArray(env, spec.Storage, pageSize)
	}
	return m, nil
}

// InjectFaults arms every GPU and storage device with the same fault
// injector (typically one per engine run). A nil injector disarms them.
func (m *Machine) InjectFaults(inj *fault.Injector) {
	for _, g := range m.GPUs {
		g.InjectFaults(inj)
	}
	if m.Storage != nil {
		m.Storage.InjectFaults(inj)
	}
}
