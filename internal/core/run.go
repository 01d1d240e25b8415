package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/bufpool"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// pidSet is a set of page IDs (the paper's nextPIDSet).
type pidSet = *bitset.Set

// plant is the simulated machine and what every member of a wave group
// shares on it: the per-GPU page caches, the host page buffer and the table
// of storage reads in flight. The sim scheduler runs one process at a time,
// so none of it needs locking; a cache dropped or shrunk on behalf of one
// member is dropped for all.
type plant struct {
	eng     *Engine // the run's graph, machine spec and options
	env     *sim.Env
	machine *hw.Machine

	caches      []*hw.PageCache // per-GPU page caches; nil = disabled
	cacheBytes  []int64         // device bytes held by each cache (for OOM spill)
	cacheTarget []int64         // each cache's configured byte budget (re-grow goal after an OOM shrink)
	// pool is the host page buffer of a storage-backed run (the paper's
	// MMBuf with its bufferPIDMap; nil in memory): Options.HostPool, or a
	// private pool built for this run. A handed-in pool may be shared with
	// concurrently executing runs in other simulation environments, so
	// every interaction goes through its non-blocking pin/unpin API (see
	// fetchPin).
	pool *bufpool.Pool
	// inMemory means the whole graph is resident in main memory: every host
	// lookup hits, so there is no buffer to consult and hostLookups only
	// records that lookups happened (BufferHitRate is 1 once any did).
	inMemory    bool
	hostLookups int64
	inflight    map[slottedpage.PageID]*sim.Signal
}

// member is one job inside a wave group: its kernel, attribute states, fault
// injector and accounting, and its per-wave traversal state. A solo run is a
// group with one member.
type member struct {
	*plant
	k      kernels.Kernel
	source uint64
	trace  *trace.Recorder // the job's, or the engine's Options.Trace
	idx    int             // the member's outcome in driver.outs

	// states holds one replica per GPU under Strategy-P, or a single
	// shared state under Strategy-S.
	states []kernels.State
	// owned[i] is GPU i's attribute ownership range [lo, hi).
	owned [][2]uint64

	// Traversal state: next is the current frontier (traversals) or the full
	// set (scans: scan is the kernel's ScanKernel, nil on a traversal), pages
	// the running wave's page set (next, or the replayed level's in a
	// backward sweep), locals the per-GPU next-page accumulation for the
	// running wave, levelSets the recorded forward frontiers for the
	// backward sweep. level counts the forward supersteps done (the report's
	// Levels).
	scan         kernels.ScanKernel
	wantBackward bool
	backKernel   kernels.BackwardKernel
	next         pidSet
	pages        pidSet
	locals       []pidSet
	levelSets    []pidSet
	level        int32
	backward     bool
	backIdx      int
	done         bool

	joinedAt        sim.Time
	residentAtStart int64 // device pages resident at joinedAt
	stepStart       sim.Time
	stepActive      bool
	beforePages     int64
	beforeBytes     int64

	// pidPool recycles page-ID bitsets (nextPIDSet locals and level
	// frontiers). hostKernelWall accrues this member's share of the real time
	// the group's page kernels took (planWave). lane is the member's lane in
	// driver.bfs; -1 unless its kernel is a plain *kernels.BFS.
	pidPool        sync.Pool
	hostKernelWall time.Duration
	lane           int

	// Fault injection and recovery. Every hardware operation attempt first
	// points the machine's injectors at this member's (see withRetry), so
	// injected faults are drawn from — and attributed to — the member whose
	// virtual operation is in flight. abort latches the first unrecoverable
	// error; the member leaves its group at the next wave boundary.
	inj    *fault.Injector
	fstats fault.Stats // recovery counters (injection counts live in inj)
	abort  error

	perGPUWA    int64
	raPerV      int64 // RA bytes per vertex a page copy carries; 0 once RA is resident
	raResident  int64 // device bytes of a whole RA kept beside the WA (newMember)
	waPerVertex int64

	// Direction-optimized traversal (kernels.FrontierKernel): fk is the
	// kernel's planning interface (nil otherwise), curDir the direction the
	// executing superstep was planned in (stamped onto its Superstep span),
	// and dirs the per-level record for the report. PlanLevel runs between
	// waves on the framework process, so none of this needs locking.
	fk     kernels.FrontierKernel
	curDir kernels.Direction
	dirs   []string

	// launches[i] has bit s set while GPU i's stream s has a launch open
	// for this member in the running wave (see processDemand).
	launches []uint32

	// curLevel is the superstep currently executing, stamped onto every
	// span the member emits; -1 outside any superstep (WA upload, final
	// copy-back).
	curLevel int32

	// Accumulators for the report. The machine's GPU and storage counters
	// aggregate every member of a group, so a member keeps its own:
	// sharedPagesIn counts pages consumed off a sibling's copy, storageRead
	// the bytes storage served it, kernelBusy its kernels' summed service
	// time.
	levelPages     []int64
	levelBytes     []int64
	pagesStreamed  int64
	cacheHits      int64
	bytesToGPU     int64
	edgesTraversed int64
	levelUpdates   int64
	updates        int64
	transferTime   sim.Time
	sharedPagesIn  int64
	storageRead    int64
	kernelBusy     sim.Time
	// Host page buffer accounting (zero when the plant has no pool).
	poolHits  int64
	poolLoads int64
	poolWaits int64
}

// waveLevel is the superstep index the current wave runs at for this
// member: the traversal level forward, the replayed level backward.
func (m *member) waveLevel() int32 {
	if m.backward {
		return int32(m.backIdx)
	}
	return m.level
}

// setupStates derives the member's half of Algorithm 1's initialization
// from the strategy: the kernel's attribute states (one replica per GPU
// under Strategy-P, a single shared state under Strategy-S), the per-GPU
// ownership ranges, and the WA/RA sizing. It performs no device allocation.
func (m *member) setupStates() {
	e, k := m.eng, m.k
	nGPU := len(m.machine.GPUs)
	nV := e.graph.NumVertices()
	m.fk, _ = k.(kernels.FrontierKernel)

	proto := k.NewState()
	k.Init(proto, m.source)
	waBytes := proto.WABytes()
	m.raPerV = kernels.RAPerVertex(k)
	if nV > 0 {
		m.waPerVertex = waBytes / int64(nV)
	}

	m.states = []kernels.State{proto}
	if e.opts.Strategy == StrategyS {
		m.perGPUWA = (waBytes + int64(nGPU) - 1) / int64(nGPU)
		chunk := (nV + uint64(nGPU) - 1) / uint64(nGPU)
		for i := 0; i < nGPU; i++ {
			lo := min(uint64(i)*chunk, nV)
			m.owned = append(m.owned, [2]uint64{lo, min(lo+chunk, nV)})
		}
		return
	}
	m.perGPUWA = waBytes
	for i := 0; i < nGPU; i++ {
		if i > 0 {
			m.states = append(m.states, proto.Clone())
		}
		m.owned = append(m.owned, [2]uint64{0, nV})
	}
}

// setup builds the shared half of Algorithm 1's initialization — the
// per-GPU page caches and the host-side page residency — from the engine
// options and the device memory that is free when it is called. Each GPU's
// cache is the one the engine carries, resized to the budget (dropping its
// most recently admitted pages past it), or a new one on a cold GPU.
func (pl *plant) setup(e *Engine) error {
	m := pl.machine
	pageSize := int64(e.graph.Config().PageSize)

	// Page cache in the remaining device memory (paper §3.3).
	for i, g := range m.GPUs {
		free := g.MemFree()
		budget := e.opts.CacheBytes
		if budget < 0 { // CacheDisabled
			continue
		}
		if budget == 0 || budget > free {
			budget = free
		}
		pages := budget / pageSize
		if pages > 0 {
			if err := g.Alloc(pages * pageSize); err != nil {
				return err
			}
			if pl.caches[i] = e.device[i]; pl.caches[i] == nil {
				pl.caches[i] = hw.NewPageCache(int(pages), e.graph.NumPages())
			}
			pl.caches[i].Resize(int(pages))
			pl.cacheBytes[i] = pages * pageSize
			pl.cacheTarget[i] = pages * pageSize
		}
	}

	// Host side: everything resident when there is no storage; otherwise a
	// page buffer front-ending the SSD/HDD array — the configured host pool,
	// or one private to this run.
	if m.Storage == nil {
		pl.inMemory = true
		if err := m.Host.Alloc(e.graph.TopologyBytes()); err != nil {
			return fmt.Errorf("core: graph does not fit in main memory and no storage is configured: %w", err)
		}
		return nil
	}
	pl.pool = e.opts.HostPool
	if pl.pool == nil {
		var err error // the paper's 20% MMBuf
		if pl.pool, err = bufpool.New(bufpool.Config{PageSize: pageSize, Bytes: e.graph.TopologyBytes() / 5}); err != nil {
			return err
		}
	}
	// A shared pool's pages live in host memory once, however many machines
	// share it; each machine still accounts the full budget so a
	// configuration that could not actually hold the pool fails here.
	if err := m.Host.Alloc(pl.pool.Budget()); err != nil {
		return err
	}
	// The device never asks the pool for a page it carries, so a frame
	// holding one would only keep out a page the device lacks.
	for _, c := range pl.caches {
		if c != nil {
			for _, pid := range c.Pages() {
				pl.pool.Drop(pid)
			}
		}
	}
	return nil
}

// planLevel asks a FrontierKernel to plan the coming level — rebuilding
// next as the exact page set its chosen direction streams — and records
// the direction for the superstep's span and the report. No-op for plain
// kernels, whose page kernels marked next themselves.
func (m *member) planLevel(level int32, next pidSet) {
	if m.fk == nil {
		return
	}
	m.curDir = m.fk.PlanLevel(m.states, level, next)
}

// bufferHitRate is the host-side page residency hit fraction: 1 for an
// in-memory graph (0 before any lookup), otherwise the member's own pin
// outcomes (the pool's global rate blends every run's traffic; a member
// report wants only its own).
func (m *member) bufferHitRate() float64 {
	if m.inMemory {
		if m.hostLookups == 0 {
			return 0
		}
		return 1
	}
	total := m.poolHits + m.poolLoads + m.poolWaits
	if total == 0 {
		return 0
	}
	return float64(m.poolHits) / float64(total)
}

// parallelGPUs runs fn once per GPU concurrently and joins.
func (m *member) parallelGPUs(p *sim.Proc, fn func(p *sim.Proc, i int)) {
	grp := sim.NewGroup(m.env)
	grp.Add(len(m.machine.GPUs))
	for i := range m.machine.GPUs {
		m.env.Process(fmt.Sprintf("gpu%d", i), func(p *sim.Proc) {
			fn(p, i)
			grp.Done()
		})
	}
	grp.Wait(p)
}
