package hw

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/fault"
	"repro/internal/sim"
)

// ErrOutOfMemory reports that a host-memory allocation exceeded the
// machine's main memory — the outcome the paper tabulates as "O.O.M." for
// the baseline systems (Fig. 6, Fig. 7).
var ErrOutOfMemory = errors.New("hw: out of main memory")

// PageCache is the device-memory topology page cache (paper §3.3, Algorithm
// 1 line 16): pages streamed to a GPU are admitted into its spare memory
// while there is room, so re-accessed pages skip the PCI-E copy. A full cache
// keeps what it holds: it has no pins, so an eviction could reclaim a slot a
// sibling stream's kernel is still reading, and under the cyclic scans that
// supersteps are, evicting by recency drops every page just before its reuse.
// A miss on a full cache streams through the SPBuf/LPBuf instead, so k scans
// of N pages through B slots hit (k-1)·B times — §3.3's B/(S+L). (The
// host-side page buffer is internal/bufpool.) A cache outlives the run that
// filled it: internal/core's Engine keeps one per GPU, and the next run
// Resizes it to its own budget and starts with what it holds.
type PageCache struct {
	capacity int         // in pages
	resident *bitset.Set // over the graph's page IDs, which are dense
	order    []uint64    // the resident pages, oldest admission first
}

// NewPageCache returns a cache holding at most capacity of a graph's
// numPages pages (page IDs in [0, numPages)).
func NewPageCache(capacity, numPages int) *PageCache {
	return &PageCache{
		capacity: capacity,
		resident: bitset.New(numPages),
		order:    make([]uint64, 0, min(capacity, numPages)),
	}
}

// Contains reports whether pid is cached.
func (c *PageCache) Contains(pid uint64) bool { return c.resident.Get(int(pid)) }

// Insert admits pid if it is new and there is room.
func (c *PageCache) Insert(pid uint64) {
	if len(c.order) >= c.capacity || c.Contains(pid) {
		return
	}
	c.resident.Set(int(pid))
	c.order = append(c.order, pid)
}

// Resize sets the page limit, dropping the most recently admitted pages
// beyond it. The device-OOM degradation path halves the cache with it instead
// of abandoning it, and restores the budget once the pressure has passed.
func (c *PageCache) Resize(capacity int) {
	c.capacity = capacity
	for len(c.order) > capacity {
		last := len(c.order) - 1
		c.resident.Clear(int(c.order[last]))
		c.order = c.order[:last]
	}
}

// Len reports the cached page count.
func (c *PageCache) Len() int { return len(c.order) }

// Pages lists the cached pages, oldest admission first. The slice is the
// cache's own: read it before the next Insert or Resize, and do not modify it.
func (c *PageCache) Pages() []uint64 { return c.order }

// Machine assembles a full workstation bound to one simulation environment.
type Machine struct {
	Env     *sim.Env
	Spec    MachineSpec
	GPUs    []*GPU
	Storage *Array // nil when the graph is served from main memory
}

// NewMachine instantiates spec's devices in env. pageSize sets the storage
// array's page layout; pass 0 when no storage is configured.
func NewMachine(env *sim.Env, spec MachineSpec, pageSize int64) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Env: env, Spec: spec}
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
