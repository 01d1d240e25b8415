package core

// The superstep engine: one run is one kernel inside one simulation
// (Algorithm 1). Every superstep is a wave, one pass in page order: the
// kernel's page set is run page by page — the functional kernel work, GPU by
// GPU — and then streams to the GPUs: each page pays its PCI-E copy unless
// the device caches it, and its kernel consumes the resident bytes.
//
// Decoupling "what the kernels compute" from "when the simulation schedules
// them" makes results bit-identical across stream interleavings — including
// interleavings perturbed by injected faults and their retries: streaming,
// caching and faults only perturb virtual timing, never functional results.

import (
	"cmp"
	"errors"
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

// errDeclined marks a job whose WA does not fit beside the stream buffers.
var errDeclined = fmt.Errorf("%w: WA does not fit beside the stream buffers", ErrWontFit)

// finished keeps each finished run's kernel reachable until the second GC
// after the run (a sync.Pool's victim cache), and with it the tables the
// kernel fetched that its graph holds only weakly: a mutable graph's commit
// patches the reverse index only while it is alive, so the next pull does
// not rebuild it (EXPERIMENTS.md, *one kernel per run*).
var finished sync.Pool

// run is one execution of a job: the simulated machine and what is resident
// on it, the job's kernel, attribute states and traversal, and the Report it
// counts into. The sim scheduler runs one process at a time, so none of it
// needs locking.
type run struct {
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

	k      kernels.Kernel
	source uint64
	trace  *trace.Recorder // the job's, or the engine's Options.Trace

	// states holds one replica per GPU under Strategy-P, or a single
	// shared state under Strategy-S.
	states []kernels.State
	// owned[i] is GPU i's attribute ownership range [lo, hi).
	owned [][2]uint64

	// Traversal state: next is the running wave's page set — the full set
	// on a scan (scan is the kernel's ScanKernel), otherwise the level the
	// kernel planned (fk is its FrontierKernel). back is its BackwardKernel
	// (nil without a backward sweep), and backIdx the level the sweep is at.
	scan     kernels.ScanKernel
	fk       kernels.FrontierKernel
	back     kernels.BackwardKernel
	next     *bitset.Set
	backward bool
	backIdx  int32
	done     bool

	stepStart   sim.Time
	stepActive  bool
	beforePages int64
	beforeBytes int64

	// Fault injection and recovery: inj is armed on the machine once, for
	// the whole run. abort latches the first unrecoverable error; the run
	// ends at the next wave boundary.
	inj   *fault.Injector
	abort error

	perGPUWA    int64
	raPerV      int64 // RA bytes per vertex a page copy carries; 0 once RA is resident
	raResident  int64 // device bytes of a whole RA kept beside the WA (newRun)
	updateBytes int64 // bytes a traversal's Strategy-P peer merge moves per update

	// curDir is the direction the executing superstep was planned in,
	// stamped onto its Superstep span.
	curDir kernels.Direction

	// launches[i] has bit s set while GPU i's stream s has a launch open in
	// the running wave (see processDemand).
	launches []uint32

	// curLevel is the superstep currently executing, stamped onto every
	// span the run emits; -1 outside any superstep (WA upload, final
	// copy-back).
	curLevel int32

	// rep is the Report the run counts into as it goes (its Levels are the
	// forward supersteps done, its Faults the recovery work; report adds
	// what only the end knows). waves counts supersteps for SharedStats,
	// levelUpdates the running superstep's attribute writes.
	rep          Report
	waves        int64
	levelUpdates int64

	// The running wave's table (see planWave): pids lists each GPU's pages
	// back to back (GPU i's end at gpuEnd[i]) and res[j] is pids[j]'s kernel
	// result. They keep their backing arrays, so a wave allocates nothing
	// here once they have grown; args backs every kernel call.
	pids   []slottedpage.PageID
	res    []kernels.Result
	gpuEnd []int
	args   kernels.Args
}

// RunJob executes one job to completion and reports timing and metrics, on
// a machine whose spare device memory is all page cache.
func (e *Engine) RunJob(job SharedJob) (*Report, error) {
	out, _, err := e.run(job)
	if err != nil {
		return nil, err
	}
	if out.Declined {
		hint := "use Strategy-S to spread WA across GPUs or add GPUs"
		if e.opts.Strategy == StrategyS {
			hint = "the graph's WA exceeds the machine's total device memory"
		}
		return nil, fmt.Errorf("%w (%s)", errDeclined, hint)
	}
	if out.Err != nil {
		return nil, out.Err
	}
	return &out.Report, nil
}

// run executes job and returns its outcome and the run's accounting. A
// malformed job — no kernel, one that neither scans nor plans its levels,
// or a source that is not a vertex — fails and a job whose WA does not fit
// is declined, both before anything runs; err is a failure of the run
// itself, which the outcome carries too.
func (e *Engine) run(job SharedJob) (SharedOutcome, SharedStats, error) {
	switch job.Kernel.(type) {
	case nil:
		return SharedOutcome{Err: fmt.Errorf("core: job has no kernel")}, SharedStats{}, nil
	case kernels.ScanKernel, kernels.FrontierKernel:
	default:
		return SharedOutcome{Err: fmt.Errorf("core: %T neither scans (kernels.ScanKernel) nor plans its levels (kernels.FrontierKernel)", job.Kernel)}, SharedStats{}, nil
	}
	if err := e.checkSource(job.Source); err != nil {
		return SharedOutcome{Err: err}, SharedStats{}, nil
	}
	r, err := e.newRun(job)
	if errors.Is(err, errDeclined) {
		return SharedOutcome{Declined: true}, SharedStats{}, nil
	}
	var elapsed sim.Time
	if err == nil {
		r.env.Process("gts-framework", r.loop)
		elapsed, err = r.env.Run()
		e.device = r.caches // what this run leaves resident, the next run starts with
		finished.Put(r.k)
	}
	if err != nil {
		return SharedOutcome{Err: err}, SharedStats{}, err
	}
	rep := r.report(elapsed)
	stats := SharedStats{Waves: r.waves, PageCopies: rep.PagesStreamed, Servings: rep.PagesStreamed + rep.CacheHits,
		BytesToGPU: rep.BytesToGPU, StorageBytes: rep.StorageBytes, EdgesTraversed: rep.EdgesTraversed, Elapsed: elapsed}
	if r.abort != nil {
		return SharedOutcome{Err: r.abort}, stats, nil
	}
	return SharedOutcome{Report: rep}, stats, nil
}

// checkSource refuses a source that is not a vertex: kernels index their
// attribute vectors by it without a check.
func (e *Engine) checkSource(src uint64) error {
	if nV := e.graph.NumVertices(); src >= nV {
		return fmt.Errorf("%w: source %d on a graph of %d vertices", ErrSourceOutOfRange, src, nV)
	}
	return nil
}

// newRun performs Algorithm 1's initialization: a fresh simulated machine
// with the run's fault injector; one set of stream buffers per GPU, with an
// RABuf as wide as the kernel needs; the kernel's WA, and its whole RA where
// the device has room to keep it resident; and the page cache in all the
// device memory that is left (§3.3), starting from the pages the engine's
// device carries. A WA that does not fit is errDeclined.
func (e *Engine) newRun(job SharedJob) (*run, error) {
	env := sim.NewEnv()
	machine, err := hw.NewMachine(env, e.spec, int64(e.graph.Config().PageSize))
	if err != nil {
		return nil, err
	}
	nGPU := len(machine.GPUs)
	r := &run{
		eng:         e,
		env:         env,
		machine:     machine,
		inflight:    map[slottedpage.PageID]*sim.Signal{},
		caches:      make([]*hw.PageCache, nGPU),
		cacheBytes:  make([]int64, nGPU),
		cacheTarget: make([]int64, nGPU),
		k:           job.Kernel,
		source:      job.Source,
		trace:       cmp.Or(job.Trace, e.opts.Trace),
		next:        bitset.New(e.graph.NumPages()),
		launches:    make([]uint32, nGPU),
		inj:         fault.NewInjector(e.opts.Faults),
		curLevel:    -1,
	}
	machine.InjectFaults(r.inj)
	r.setupStates()

	// Each GPU's stream buffers: SPBuf + LPBuf per stream plus an RABuf
	// sized for the densest page's subvector.
	cfg := e.graph.Config()
	bufBytes := int64(e.opts.Streams) * (2*int64(cfg.PageSize) + int64(cfg.MaxSlotsPerPage())*r.raPerV)
	for _, g := range machine.GPUs {
		if err := g.Alloc(bufBytes); err != nil {
			return nil, fmt.Errorf("%w: stream buffers %d on %s: %v", ErrWontFit, bufBytes, g.Spec.Name, err)
		}
	}
	// The page cache is not built yet, so a WA that does not fit now never
	// will on this machine.
	for _, g := range machine.GPUs {
		if g.Alloc(r.perGPUWA) != nil {
			return nil, errDeclined
		}
	}
	// A full scan keeps its whole RA beside its WA, and its page copies
	// carry none, when the machine has one GPU whose free memory still holds
	// the whole topology next to the RA: memory the page cache could never
	// fill. With more GPUs the merged WA sits on GPU 0 (Strategy-P) or in
	// chunks (Strategy-S), so RA streams per page (§3.1). Metrics.WABytes
	// stays WA only.
	if ra := int64(e.graph.NumVertices()) * r.raPerV; r.scan != nil && ra > 0 && nGPU == 1 {
		if g := machine.GPUs[0]; g.MemFree() >= e.graph.TopologyBytes()+ra && g.Alloc(ra) == nil {
			r.raResident, r.raPerV = ra, 0
		}
	}
	return r, r.setup()
}

// setupStates derives the kernel's half of Algorithm 1's initialization
// from the strategy: the attribute states (one replica per GPU under
// Strategy-P, a single shared state under Strategy-S), the per-GPU
// ownership ranges, and the WA/RA sizing. It performs no device allocation.
func (r *run) setupStates() {
	e, k := r.eng, r.k
	nGPU := len(r.machine.GPUs)
	nV := e.graph.NumVertices()
	r.scan, _ = k.(kernels.ScanKernel)
	r.fk, _ = k.(kernels.FrontierKernel)
	r.back, _ = k.(kernels.BackwardKernel)

	proto := k.NewState()
	k.Init(proto, r.source)
	waBytes := proto.WABytes()
	r.raPerV = kernels.RAPerVertex(k)
	if nV > 0 {
		r.updateBytes = kernels.UpdateBytes(k, waBytes/int64(nV))
	}

	r.states = []kernels.State{proto}
	if e.opts.Strategy == StrategyS {
		r.perGPUWA = (waBytes + int64(nGPU) - 1) / int64(nGPU)
		chunk := (nV + uint64(nGPU) - 1) / uint64(nGPU)
		for i := 0; i < nGPU; i++ {
			lo := min(uint64(i)*chunk, nV)
			r.owned = append(r.owned, [2]uint64{lo, min(lo+chunk, nV)})
		}
		return
	}
	r.perGPUWA = waBytes
	for i := 0; i < nGPU; i++ {
		if i > 0 {
			r.states = append(r.states, proto.Clone())
		}
		r.owned = append(r.owned, [2]uint64{0, nV})
	}
}

// setup builds the rest of Algorithm 1's initialization — the per-GPU page
// caches and the host-side page residency — from the engine options and the
// device memory that is free when it is called. Each GPU's cache is the one
// the engine carries, resized to the budget (dropping its most recently
// admitted pages past it), or a new one on a cold GPU.
func (r *run) setup() error {
	e, m := r.eng, r.machine
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
			if r.caches[i] = e.device[i]; r.caches[i] == nil {
				r.caches[i] = hw.NewPageCache(int(pages), e.graph.NumPages())
			}
			r.caches[i].Resize(int(pages))
			r.cacheBytes[i] = pages * pageSize
			r.cacheTarget[i] = pages * pageSize
		}
	}

	// Host side: everything resident when there is no storage; otherwise a
	// page buffer front-ending the SSD/HDD array — the configured host pool,
	// or one private to this run.
	if m.Storage == nil {
		r.inMemory = true
		if err := m.Host.Alloc(e.graph.TopologyBytes()); err != nil {
			return fmt.Errorf("core: graph does not fit in main memory and no storage is configured: %w", err)
		}
		return nil
	}
	r.pool = e.opts.HostPool
	if r.pool == nil {
		var err error // the paper's 20% MMBuf
		if r.pool, err = bufpool.New(bufpool.Config{PageSize: pageSize, Bytes: e.graph.TopologyBytes() / 5}); err != nil {
			return err
		}
	}
	// A shared pool's pages live in host memory once, however many machines
	// share it; each machine still accounts the full budget so a
	// configuration that could not actually hold the pool fails here.
	if err := m.Host.Alloc(r.pool.Budget()); err != nil {
		return err
	}
	// The device never asks the pool for a page it carries, so a frame
	// holding one would only keep out a page the device lacks.
	for _, c := range r.caches {
		if c != nil {
			for _, pid := range c.Pages() {
				r.pool.Drop(pid)
			}
		}
	}
	return nil
}

// loop is Algorithm 1's repeat-until loop, run as the controlling CPU
// thread: the WA upload, then waves until the kernel finishes or the run
// aborts.
func (r *run) loop(p *sim.Proc) {
	r.begin(p)
	for r.abort == nil && !r.done {
		r.waves++
		if r.beginWave(); r.abort != nil {
			return
		}
		r.planWave()
		r.streamDemand(p)
		r.endWave(p)
	}
}

// begin uploads the WA to every GPU concurrently (Fig. 5 step 1), with a
// resident RA in the same chunk, and sets the first wave's pages: the whole
// topology for a scan, the kernel's level-0 plan for a traversal. A fault
// that outlasts its retries during the upload aborts the run.
func (r *run) begin(p *sim.Proc) {
	for _, c := range r.caches {
		if c != nil {
			r.rep.ResidentAtStart += int64(c.Len())
		}
	}
	r.parallelGPUs(p, len(r.machine.GPUs), func(p *sim.Proc, i int) {
		t0 := r.env.Now()
		err := r.withRetry(p, i, -1, "WA upload", func() error {
			return r.machine.GPUs[i].CopyChunkIn(p, r.perGPUWA+r.raResident)
		})
		if err != nil {
			r.fail(err)
			return
		}
		r.rep.BytesToGPU += r.perGPUWA + r.raResident
		r.trace.Add(trace.Span{GPU: i, Stream: -1, Kind: trace.CopyWA, Page: -1, Level: -1, Start: t0, End: r.env.Now()})
	})
	if r.abort != nil {
		return
	}
	if r.scan == nil {
		r.planLevel(0)
		return
	}
	for pid := range r.eng.graph.NumPages() {
		r.next.Set(pid)
	}
}

// beginWave opens a superstep: level bookkeeping and BeginLevel.
func (r *run) beginWave() {
	if !r.backward && r.rep.Levels > kernels.MaxLevels {
		r.fail(fmt.Errorf("core: run exceeded kernels.MaxLevels (%d levels)", kernels.MaxLevels))
		return
	}
	lvl := r.waveLevel()
	r.curLevel = lvl
	r.stepStart = r.env.Now()
	r.beforePages = r.rep.PagesStreamed
	r.beforeBytes = r.rep.BytesToGPU
	r.stepActive = false
	r.levelUpdates = 0
	if r.curDir != kernels.DirNone && !r.backward {
		r.rep.LevelDirs = append(r.rep.LevelDirs, r.curDir.String())
	}
	kernels.BeginLevel(r.k, r.states, lvl)
	clear(r.launches)
}

// waveLevel is the superstep index the current wave runs at: the traversal
// level forward, the re-planned level backward.
func (r *run) waveLevel() int32 {
	if r.backward {
		return r.backIdx
	}
	return r.rep.Levels
}

// planWave is the functional half of a wave: it lists each GPU's pages and
// runs their kernels, GPU by GPU and page by page. A GPU takes the wave's
// pages in ascending page ID — under Strategy-P with several GPUs page j is
// GPU j mod N's (§4.1), otherwise every GPU takes every page (§4.2). The
// kernels execute between sim events, so virtual time, traces and fault
// schedules do not depend on how long they take; that wall-clock is measured
// into the report's HostKernelWall.
func (r *run) planWave() {
	t0 := time.Now()
	g, nGPU := r.eng.graph, len(r.machine.GPUs)
	split := r.eng.opts.Strategy == StrategyP && nGPU > 1
	n := r.next.Count() * nGPU
	r.pids, r.res, r.gpuEnd = sized(r.pids, n), sized(r.res, n), r.gpuEnd[:0]
	for i := range nGPU {
		rep := 0 // the state replica this GPU works on: its own under Strategy-P
		if r.eng.opts.Strategy == StrategyP {
			rep = i
		}
		r.args = kernels.Args{Graph: g, State: r.states[rep], Level: r.curLevel, OwnedLo: r.owned[i][0], OwnedHi: r.owned[i][1],
			Tech: r.eng.opts.Technique}
		r.next.ForEach(func(pid int) {
			if split && pid%nGPU != i {
				return
			}
			r.args.PID, r.args.Page = slottedpage.PageID(pid), g.Page(slottedpage.PageID(pid))
			r.pids = append(r.pids, r.args.PID)
			if r.backward {
				r.res = append(r.res, r.back.RunBack(&r.args))
			} else {
				r.res = append(r.res, r.k.Run(&r.args))
			}
		})
		r.gpuEnd = append(r.gpuEnd, len(r.pids))
	}
	r.rep.HostKernelWall += time.Since(t0)
}

// sized returns s emptied, with room for at least n elements: a table
// grown by append would allocate its way up to the widest wave.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// streamDemand streams the wave's table to the GPUs: under Strategy-P with
// several GPUs each streams its own share of the pages, otherwise every GPU
// streams all of them (see planWave), handed out in page order to the GPU's
// stream processes.
func (r *run) streamDemand(p *sim.Proc) {
	grp := sim.NewGroup(r.env)
	lo := 0
	for i, hi := range r.gpuEnd {
		// The GPU's streams share one cursor and each takes the next page when
		// it goes idle (one process runs at a time, so no lock): requests reach
		// each storage device's FIFO in page order, where a fixed stride per
		// stream scrambles them and turns a sequential scan into random reads.
		next := lo
		lo = hi
		for s := range min(r.eng.opts.Streams, hi-next) {
			grp.Add(1)
			r.env.Process(streamProcName(i, s), func(p *sim.Proc) {
				for next < hi {
					j := next
					next++
					r.processDemand(p, i, s, j)
				}
				grp.Done()
			})
		}
	}
	grp.Wait(p)
}

// processDemand handles one page of the wave's table on one GPU stream — the
// cache / main-memory-buffer / storage decision chain of Algorithm 1 lines
// 16-26: a page the device caches is served in place, any other is fetched
// and copied, its RA streams with it unless that is resident, and then its
// kernel runs. A host-pool pin is held until the kernel is done, so the host
// frame cannot be evicted while the page is in use. A kernel for a page that
// needed no copy runs inside the launch the stream already has open in this
// wave, or opens one; a copy closes it, as a queued kernel cannot read bytes
// a later copy on its stream brings in. j indexes the table.
func (r *run) processDemand(p *sim.Proc, gpuIdx, stream, j int) {
	if r.abort != nil {
		return
	}
	gpu, g, pid := r.machine.GPUs[gpuIdx], r.eng.graph, r.pids[j]
	_, count := g.VertexRange(pid)
	ra := int64(count) * r.raPerV
	// Algorithm 1 line 16: is the page already in device memory?
	cache := r.caches[gpuIdx]
	copied := cache == nil || !cache.Contains(uint64(pid))
	if copied {
		if r.inMemory {
			r.hostLookups++
		} else if pinned, err := r.fetchPin(p, pid, gpuIdx, stream); err != nil {
			r.fail(err)
			return
		} else if pinned {
			defer r.pool.Unpin(uint64(pid))
		}
		if err := r.streamCopy(p, gpu, gpuIdx, stream, pid, int64(g.Config().PageSize)+ra); err != nil {
			r.fail(err)
			return
		}
		r.rep.PagesStreamed++
		// Re-read the cache: another stream's OOM degradation may have dropped it.
		if cache := r.caches[gpuIdx]; cache != nil {
			cache.Insert(uint64(pid))
		}
	} else {
		r.rep.CacheHits++
		if ra > 0 {
			if err := r.streamCopy(p, gpu, gpuIdx, stream, pid, ra); err != nil {
				r.fail(err)
				return
			}
			copied = true
		}
	}
	if r.abort != nil { // another stream failed the run while this one copied
		return
	}

	// The functional work already ran, before the wave's streams started
	// (planWave); here its memoized cycle count occupies the simulated SM
	// pool at whatever virtual time this stream reached the page, so a
	// failed launch leaves the state consistent.
	res := r.res[j]
	t0 := r.env.Now()
	bit := uint32(1) << stream
	if open := &r.launches[gpuIdx]; copied || *open&bit == 0 {
		if err := r.launchKernel(p, gpuIdx, stream, pid, res.Cycles); err != nil {
			r.fail(err)
			return
		}
		if copied {
			*open &^= bit
		} else {
			*open |= bit
		}
	} else {
		gpu.ContinueKernel(p, res.Cycles)
	}
	r.trace.Add(trace.Span{GPU: gpuIdx, Stream: stream, Kind: trace.Kernel,
		Page: int64(pid), Level: r.curLevel, Start: t0, End: r.env.Now()})
	r.rep.KernelTime += gpu.KernelTime(res.Cycles)
	r.rep.EdgesTraversed += res.Edges
	r.rep.Updates += res.Updates
	r.levelUpdates += res.Updates
	if res.Active {
		r.stepActive = true
	}
}

// endWave finishes a superstep: cross-GPU sync, the kernel's plan of the
// coming level (a traversal) or iteration bookkeeping (a scan),
// backward-sweep stepping, and completion.
func (r *run) endWave(p *sim.Proc) {
	if r.abort != nil {
		return
	}
	lvl := r.waveLevel()
	r.sync(p, lvl)
	// The Superstep container span: one traversal level / iteration
	// including its cross-GPU sync, on the framework track; Dir carries the
	// planned traversal direction (0 without direction optimization). The
	// Wave span beside it numbers the wave that carried the superstep.
	now := r.env.Now()
	r.trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Superstep, Page: -1, Level: lvl, Dir: int8(r.curDir), Start: r.stepStart, End: now})
	r.trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Wave, Page: r.waves, Level: lvl, Start: r.stepStart, End: now})
	if r.abort != nil {
		return
	}
	if !r.backward {
		r.rep.LevelPages = append(r.rep.LevelPages, r.rep.PagesStreamed-r.beforePages)
		r.rep.LevelBytes = append(r.rep.LevelBytes, r.rep.BytesToGPU-r.beforeBytes)
		r.rep.Levels++
	}
	if r.scan != nil {
		// Scan-like: every iteration revisits the full set, which r.next
		// already holds.
		if !r.scan.EndIteration(r.states, r.stepActive) {
			r.finish(p)
			return
		}
		// Per-iteration WA sync: the updated vector streams back so the host
		// can feed it as next iteration's RA (Eq. 1's 2|WA|); a resident RA is
		// the device's own copy of it, which the next iteration reads in place.
		r.copyWAOut(p)
		return
	}
	// A traversal: the kernel plans the coming level, and an empty plan ends
	// the forward phase. A backward sweep (Betweenness Centrality) then
	// re-plans the forward levels deepest first; a vertex's level is final
	// once set, so each plan is the forward one's.
	if !r.backward {
		if r.planLevel(r.rep.Levels) {
			return
		}
		if r.back == nil {
			r.finish(p)
			return
		}
		r.backward, r.backIdx = true, r.rep.Levels
	}
	if r.backIdx--; r.backIdx < 0 {
		r.finish(p)
		return
	}
	r.planLevel(r.backIdx)
}

// finish performs the final WA copy-back (data synchronization, Fig. 2 step
// 3) and closes the Run span, which covers the whole execution on the
// framework track — the run → superstep → stream hierarchy.
func (r *run) finish(p *sim.Proc) {
	r.curLevel = -1
	r.copyWAOut(p)
	if r.abort != nil {
		return
	}
	r.trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Run, Page: -1, Level: -1, Start: 0, End: r.env.Now()})
	r.done = true
}

// report completes the Report the run counted into with what only the end
// knows: Elapsed, the rates, the final state and the injection counts (the
// injector keeps those; the run counted the recovery work).
func (r *run) report(elapsed sim.Time) Report {
	rep := r.rep
	rep.Elapsed = elapsed
	if lookups := rep.CacheHits + rep.PagesStreamed; lookups > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(lookups)
	}
	rep.BufferHitRate = r.bufferHitRate()
	rep.WABytes = r.states[0].WABytes()
	rep.MTEPS = trace.MTEPS(rep.EdgesTraversed, elapsed)
	rep.Faults.Add(r.inj.Stats())
	rep.State = r.states[0]
	return rep
}

// planLevel has the kernel rebuild next as the page set of the coming level
// and keeps the direction it planned for the superstep's span and the
// report. It reports whether the level has any page.
func (r *run) planLevel(level int32) bool {
	r.curDir = r.fk.PlanLevel(r.states, level, r.next)
	return r.next.Any()
}

// bufferHitRate is the host-side page residency hit fraction: 1 for an
// in-memory graph (0 before any lookup), otherwise the run's own pin
// outcomes (the pool's global rate blends every run's traffic).
func (r *run) bufferHitRate() float64 {
	if r.inMemory {
		if r.hostLookups == 0 {
			return 0
		}
		return 1
	}
	total := r.rep.PoolHits + r.rep.PoolLoads + r.rep.PoolWaits
	if total == 0 {
		return 0
	}
	return float64(r.rep.PoolHits) / float64(total)
}

// parallelGPUs runs fn once for each of the first n GPUs concurrently and
// joins.
func (r *run) parallelGPUs(p *sim.Proc, n int, fn func(p *sim.Proc, i int)) {
	grp := sim.NewGroup(r.env)
	grp.Add(n)
	for i := range n {
		r.env.Process(fmt.Sprintf("gpu%d", i), func(p *sim.Proc) {
			fn(p, i)
			grp.Done()
		})
	}
	grp.Wait(p)
}
