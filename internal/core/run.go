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

// run carries one execution's mutable context.
type run struct {
	eng     *Engine
	k       kernels.Kernel
	env     *sim.Env
	machine *hw.Machine

	// states holds one replica per GPU under Strategy-P, or a single
	// shared state under Strategy-S.
	states []kernels.State
	// owned[i] is GPU i's attribute ownership range [lo, hi).
	owned [][2]uint64

	caches      []*hw.BufferPool // per-GPU page caches; nil = disabled
	cacheBytes  []int64          // device bytes held by each cache (for OOM spill)
	cacheTarget []int64          // each cache's configured byte budget (re-grow goal after an OOM shrink)
	buffer      *hw.BufferPool   // main-memory page buffer (bufferPIDMap); nil when pooled
	// pool, when non-nil, is the shared host page pool that replaces the
	// private main-memory buffer for storage-backed runs (Options.HostPool).
	// It may be shared with concurrently executing runs in other simulation
	// environments, so every interaction goes through its non-blocking
	// pin/unpin API (see fetchPin).
	pool     *bufpool.Pool
	inMemory bool // whole graph resident in main memory
	inflight map[slottedpage.PageID]*sim.Signal
	// kres memoizes the current phase's functional kernel results, computed
	// in deterministic (GPU, page) order before the streams start (see
	// phase): kres[i] is the result of the phase's i-th job. sps, lps and
	// parts are the superstep's page lists and the phase's per-GPU
	// partition; all four keep their backing arrays across supersteps.
	kres     []kernels.Result
	sps, lps []slottedpage.PageID
	parts    [][]slottedpage.PageID

	// Host worker pool (see parallel.go). workers is Options.HostWorkers
	// after defaulting; jobs, gatherRes and gatherDefs are per-phase scratch
	// reused across waves; pidPool recycles page-ID bitsets (nextPIDSet
	// locals and level frontiers); hostKernelWall accrues the real time
	// spent in functional kernel execution.
	workers        int
	jobs           []pageKey
	gatherRes      []kernels.Result
	gatherDefs     []*kernels.Deferred
	pidPool        sync.Pool
	hostKernelWall time.Duration
	// argScratch backs the serial paths' kernels.Args so passing &args to
	// an interface method does not heap-allocate once per page; adjScratch
	// is the adjacency decode buffer those Args point at (gathers decode
	// into their Deferred instead, so the worker pool never shares it).
	argScratch kernels.Args
	adjScratch kernels.AdjScratch

	// Fault injection and recovery. The sim scheduler runs one process at
	// a time, so these need no locking. abort latches the first
	// unrecoverable error; streams poll it and wind down.
	inj    *fault.Injector
	fstats fault.Stats // recovery counters (injection counts live in inj)
	abort  error

	// sharedMode marks this run as one member of a multi-query wave group
	// (see shared.go): the machine, caches, main-memory buffer and inflight
	// map are shared with sibling members, and every hardware operation
	// re-arms the machine's injectors with this member's (armFaults) so
	// fault attribution stays per-job.
	sharedMode bool

	perGPUWA    int64
	raPerV      int64
	waPerVertex int64
	levels      int32

	// Direction-optimized traversal (kernels.FrontierKernel): fk is the
	// kernel's planning interface (nil otherwise), curDir the direction the
	// executing superstep was planned in (stamped onto its Superstep span),
	// and dirs the per-level record for the report. PlanLevel runs between
	// supersteps on the framework process, so none of this needs locking.
	fk     kernels.FrontierKernel
	curDir kernels.Direction
	dirs   []kernels.Direction

	// curLevel is the superstep currently executing, stamped onto every
	// span the run emits; -1 outside any superstep (WA upload, final
	// copy-back). The sim scheduler runs one process at a time and host
	// workers never emit spans, so no locking is needed.
	curLevel int32

	// phaseConsumed counts pages processed in the current phase, which
	// throttles the prefetcher's lead.
	phaseConsumed int64

	// Accumulators for the report.
	levelPages     []int64
	levelBytes     []int64
	pagesStreamed  int64
	cacheHits      int64
	bytesToGPU     int64
	edgesTraversed int64
	levelUpdates   int64
	updates        int64
	transferTime   sim.Time
	// Shared-mode accumulators: pages this member consumed off a sibling's
	// copy, bytes it read from storage, and its kernels' summed service
	// time (a shared machine's GPU stats aggregate all members, so member
	// reports need their own).
	sharedPagesIn int64
	storageRead   int64
	kernelBusy    sim.Time
	// Shared host-pool accounting (zero when r.pool is nil).
	poolHits  int64
	poolLoads int64
	poolWaits int64
}

// armFaults points the shared machine's fault injectors at this member.
// Solo runs arm the machine once at Run and never re-arm; shared members
// re-arm immediately before every hardware operation attempt so injected
// faults are drawn from — and attributed to — the member whose virtual
// operation is in flight. The sim scheduler runs one process at a time
// and the hw models read their injector synchronously at call entry, so
// arming here cannot race a sibling's in-flight operation.
func (r *run) armFaults() {
	if r.sharedMode {
		r.machine.InjectFaults(r.inj)
	}
}

// Run executes kernel k to completion and reports timing and metrics.
func (e *Engine) Run(k kernels.Kernel) (*Report, error) {
	r := &run{eng: e, k: k, env: sim.NewEnv(), inflight: map[slottedpage.PageID]*sim.Signal{}, curLevel: -1}
	r.workers = e.opts.HostWorkers
	numPages := e.graph.NumPages()
	r.pidPool.New = func() any { return bitset.New(numPages) }
	m, err := hw.NewMachine(r.env, e.spec, int64(e.graph.Config().PageSize))
	if err != nil {
		return nil, err
	}
	r.machine = m
	// Each run gets its own injector from the shared plan: pooled runs stay
	// independent and each replays the same fault sequence for its seed.
	r.inj = fault.NewInjector(e.opts.Faults)
	m.InjectFaults(r.inj)
	if err := r.setup(); err != nil {
		return nil, err
	}

	var runErr error
	r.env.Process("gts-framework", func(p *sim.Proc) {
		runErr = r.framework(p)
	})
	elapsed, err := r.env.Run()
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return r.report(elapsed), nil
}

// setup performs Algorithm 1's initialization: allocate WABuf, the
// streaming buffers and the page cache in each GPU's device memory, create
// the attribute states, and size the main-memory buffer.
func (r *run) setup() error {
	e, m := r.eng, r.machine
	pageSize := int64(e.graph.Config().PageSize)

	r.setupStates()

	// Streaming buffers: SPBuf + LPBuf per stream plus an RABuf sized for
	// the densest page's subvector. A solo run reserves WA and buffers in
	// one allocation; shared runs allocate group buffers once and per-member
	// WA separately (see shared.go).
	raBuf := int64(e.graph.Config().MaxSlotsPerPage()) * r.raPerV
	bufBytes := int64(e.opts.Streams) * (2*pageSize + raBuf)
	for _, g := range m.GPUs {
		if err := g.Alloc(r.perGPUWA + bufBytes); err != nil {
			hint := "use Strategy-S to spread WA across GPUs or add GPUs"
			if e.opts.Strategy == StrategyS {
				hint = "the graph's WA exceeds the machine's total device memory"
			}
			return fmt.Errorf("%w: WA %d + buffers %d on %s (%s): %v",
				ErrWontFit, r.perGPUWA, bufBytes, g.Spec.Name, hint, err)
		}
	}

	return r.setupMachine()
}

// setupStates derives the per-job half of setup from the strategy: the
// kernel's attribute states (one replica per GPU under Strategy-P, a single
// shared state under Strategy-S), the per-GPU ownership ranges, and the
// WA/RA sizing. It performs no device allocation.
func (r *run) setupStates() {
	e, k := r.eng, r.k
	nGPU := len(r.machine.GPUs)
	nV := e.graph.NumVertices()
	r.fk, _ = k.(kernels.FrontierKernel)

	proto := k.NewState()
	k.Init(proto, e.opts.Source)
	waBytes := proto.WABytes()
	r.raPerV = k.RAPerVertex()
	if nV > 0 {
		r.waPerVertex = waBytes / int64(nV)
	}

	switch e.opts.Strategy {
	case StrategyP:
		r.perGPUWA = waBytes
		r.states = []kernels.State{proto}
		for i := 1; i < nGPU; i++ {
			r.states = append(r.states, proto.Clone())
		}
		for i := 0; i < nGPU; i++ {
			r.owned = append(r.owned, [2]uint64{0, nV})
		}
	case StrategyS:
		r.perGPUWA = ceilDiv(waBytes, int64(nGPU))
		r.states = []kernels.State{proto}
		chunk := (nV + uint64(nGPU) - 1) / uint64(nGPU)
		for i := 0; i < nGPU; i++ {
			lo := uint64(i) * chunk
			hi := lo + chunk
			if lo > nV {
				lo = nV
			}
			if hi > nV {
				hi = nV
			}
			r.owned = append(r.owned, [2]uint64{lo, hi})
		}
	}
}

// setupMachine builds the machine-plant half of setup — the per-GPU page
// caches and the main-memory buffer — which depends only on the engine
// options and the memory left after WA/stream-buffer allocation. Shared
// runs call it once for the whole group.
func (r *run) setupMachine() error {
	e, m := r.eng, r.machine
	nGPU := len(m.GPUs)
	pageSize := int64(e.graph.Config().PageSize)

	// Page cache in the remaining device memory (paper §3.3).
	r.caches = make([]*hw.BufferPool, nGPU)
	r.cacheBytes = make([]int64, nGPU)
	r.cacheTarget = make([]int64, nGPU)
	for i, g := range m.GPUs {
		budget := e.opts.CacheBytes
		if budget < 0 { // CacheDisabled
			continue
		}
		if budget == 0 || budget > g.MemFree() {
			budget = g.MemFree()
		}
		pages := budget / pageSize
		if pages > 0 {
			if err := g.Alloc(pages * pageSize); err != nil {
				return err
			}
			r.caches[i] = hw.NewBufferPool(int(pages))
			r.cacheBytes[i] = pages * pageSize
			r.cacheTarget[i] = pages * pageSize
		}
	}

	// Main-memory buffer: everything resident when there is no storage;
	// otherwise the shared host pool when one is configured, or a
	// run-private bounded buffer front-ending the SSD/HDD array.
	if m.Storage == nil {
		r.inMemory = true
		if err := m.Host.Alloc(e.graph.TopologyBytes()); err != nil {
			return fmt.Errorf("core: graph does not fit in main memory and no storage is configured: %w", err)
		}
		r.buffer = hw.NewBufferPool(0)
		for pid := 0; pid < e.graph.NumPages(); pid++ {
			r.buffer.Insert(uint64(pid))
		}
	} else if e.opts.HostPool != nil {
		// The pool's pages live in host memory once, however many machines
		// share it; each machine still accounts the full budget so a
		// configuration that could not actually hold the pool fails here.
		r.pool = e.opts.HostPool
		if err := m.Host.Alloc(r.pool.Budget()); err != nil {
			return err
		}
	} else {
		mmBytes := e.opts.MMBufBytes
		if mmBytes == 0 {
			mmBytes = e.graph.TopologyBytes() / 5 // the paper's 20% buffer
		}
		pages := mmBytes / pageSize
		if pages < 1 {
			pages = 1
		}
		if err := m.Host.Alloc(pages * pageSize); err != nil {
			return err
		}
		r.buffer = hw.NewBufferPool(int(pages))
	}
	return nil
}

// framework is Algorithm 1's repeat-until loop, run as the controlling CPU
// thread.
func (r *run) framework(p *sim.Proc) error {
	e, k := r.eng, r.k
	g := e.graph
	nGPU := len(r.machine.GPUs)
	numPages := g.NumPages()

	// Step 1 (Fig. 5): upload WA chunks to every GPU concurrently.
	r.parallelGPUs(p, func(p *sim.Proc, i int) {
		t0 := r.env.Now()
		err := r.withRetry(p, i, -1, "WA upload", func() error {
			return r.machine.GPUs[i].CopyChunkIn(p, r.perGPUWA)
		})
		if err != nil {
			r.fail(err)
			return
		}
		r.bytesToGPU += r.perGPUWA
		e.opts.Trace.Add(trace.Span{GPU: i, Stream: -1, Kind: trace.CopyWA, Page: -1, Level: r.curLevel, Start: t0, End: r.env.Now()})
	})
	if r.abort != nil {
		return r.abort
	}

	bfsLike := k.Class() == kernels.BFSLike
	next := r.getPidSet()
	if bfsLike {
		home := g.HomeOf(e.opts.Source)
		next.Set(int(home.PID))
		if g.Kind(home.PID) == slottedpage.LargePage {
			r.eng.expandLPRun(next, home.PID)
		}
		// A planning kernel owns its frontier: replace the seed with the
		// level-0 plan (direction choice + exact page set).
		r.planLevel(0, next)
	} else {
		for pid := 0; pid < numPages; pid++ {
			next.Set(pid)
		}
	}

	backKernel, wantBackward := k.(kernels.BackwardKernel)
	var levelSets []pidSet // forward per-level page sets, for the backward sweep

	var level int32
	locals := make([]pidSet, nGPU)
	for {
		if level > 32000 {
			return fmt.Errorf("core: traversal exceeded 32000 levels (level vectors are int16)")
		}
		r.curLevel = level
		stepStart := r.env.Now()
		if r.fk != nil {
			r.dirs = append(r.dirs, r.curDir)
		}
		k.BeginLevel(r.states, level)
		for i := range locals {
			locals[i] = r.getPidSet()
		}
		beforePages, beforeBytes := r.pagesStreamed, r.bytesToGPU
		anyActive := r.superstep(p, next, level, locals, false)
		r.levelPages = append(r.levelPages, r.pagesStreamed-beforePages)
		r.levelBytes = append(r.levelBytes, r.bytesToGPU-beforeBytes)
		r.sync(p, level, bfsLike)
		// The Superstep container span: one traversal level / iteration
		// including its cross-GPU sync, on the framework track. Dir carries
		// the planned traversal direction (0 for plain kernels).
		e.opts.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Superstep, Page: -1, Level: level, Dir: int8(r.curDir), Start: stepStart, End: r.env.Now()})
		if r.abort != nil {
			return r.abort
		}

		if bfsLike {
			if wantBackward {
				levelSets = append(levelSets, next.Clone())
			}
			merged := r.getPidSet()
			for _, l := range locals {
				merged.Or(l)
			}
			// Expand LP runs: kernels mark a large vertex's first page.
			merged.ForEach(func(pid int) {
				if g.Kind(slottedpage.PageID(pid)) == slottedpage.LargePage {
					r.eng.expandLPRun(merged, slottedpage.PageID(pid))
				}
			})
			// A planning kernel rebuilds the next frontier itself — this must
			// run before the emptiness test, because bucketed kernels
			// (DeltaSSSP) carry pending work in attribute state even when no
			// page kernel marked a next page.
			r.planLevel(level+1, merged)
			r.putPidSet(next)
			next = merged
			level++
			if !next.Any() {
				break
			}
		} else {
			level++
			if !k.EndIteration(r.states, anyActive) {
				break
			}
			// Per-iteration WA sync: the updated vector streams back so
			// the host can feed it as next iteration's RA (Eq. 1's 2|WA|).
			r.copyWAOut(p)
			if r.abort != nil {
				return r.abort
			}
			// Full-scan kernels revisit every page; next is already the
			// full set, so it carries over unchanged.
		}
		for i := range locals {
			r.putPidSet(locals[i])
			locals[i] = nil
		}
	}

	// Backward sweep (Betweenness Centrality): replay recorded levels in
	// reverse, deepest first.
	if wantBackward {
		backKernel.BeginBackward(r.states, level-1)
		for l := len(levelSets) - 1; l >= 0; l-- {
			r.curLevel = int32(l)
			stepStart := r.env.Now()
			k.BeginLevel(r.states, int32(l))
			for i := range locals {
				locals[i] = r.getPidSet()
			}
			r.superstep(p, levelSets[l], int32(l), locals, true)
			r.sync(p, int32(l), true)
			e.opts.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Superstep, Page: -1, Level: int32(l), Start: stepStart, End: r.env.Now()})
			for i := range locals {
				r.putPidSet(locals[i])
				locals[i] = nil
			}
			if r.abort != nil {
				return r.abort
			}
		}
	}

	// Final WA copy-back (data synchronization, Fig. 2 step 3).
	r.curLevel = -1
	r.copyWAOut(p)
	if r.abort != nil {
		return r.abort
	}
	r.levels = level
	// The Run container span covers the whole execution on the framework
	// track, closing the run → superstep → stream hierarchy.
	e.opts.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Run, Page: -1, Level: -1, Start: 0, End: r.env.Now()})
	return nil
}

// planLevel asks a FrontierKernel to plan the coming level — rebuilding
// next as the exact page set its chosen direction streams — and records
// the direction for the superstep's span and the report. No-op for plain
// kernels, whose page kernels marked next themselves.
func (r *run) planLevel(level int32, next pidSet) {
	if r.fk == nil {
		return
	}
	r.curDir = r.fk.PlanLevel(r.states, level, next)
}

// bufferHitRate is the host-side page residency hit fraction: the private
// main-memory buffer's when the run owns one, or the run's own pool pin
// outcomes when it shares a host pool (the shared pool's global rate
// blends every run's traffic; a member report wants only its own).
func (r *run) bufferHitRate() float64 {
	if r.pool != nil {
		total := r.poolHits + r.poolLoads + r.poolWaits
		if total == 0 {
			return 0
		}
		return float64(r.poolHits) / float64(total)
	}
	return r.buffer.HitRate()
}

// parallelGPUs runs fn once per GPU concurrently and joins.
func (r *run) parallelGPUs(p *sim.Proc, fn func(p *sim.Proc, i int)) {
	grp := sim.NewGroup(r.env)
	grp.Add(len(r.machine.GPUs))
	for i := range r.machine.GPUs {
		i := i
		r.env.Process(fmt.Sprintf("gpu%d", i), func(p *sim.Proc) {
			fn(p, i)
			grp.Done()
		})
	}
	grp.Wait(p)
}
