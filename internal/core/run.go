package core

// The superstep engine: one run is one kernel inside one simulation
// (Algorithm 1). Every superstep is a wave, one pass in page order: the
// kernel's page set is run page by page — the functional kernel work, GPU by
// GPU — and then streams to the GPUs: each page pays its PCI-E copy unless
// the device caches it, and its kernel consumes the resident bytes.
//
// A run is two halves of one loop. The functional half (planner) owns the
// kernel, its states and the level state machine, and computes each wave
// into a table of page IDs and kernel results on a goroutine of its own; the
// simulated half (run, the "gts-framework" process and its streams) owns the
// machine, the caches, the pool, the trace and the Report, and plays each
// table in virtual time. A run has two tables, and both are handed to the
// functional half at the start; the simulation hands each back once its
// streams have played it, so the kernels of wave L+1 execute while the
// streams play wave L. Neither half reads what the other writes, and the
// simulation consumes the same tables in the same order whenever they
// arrive, so virtual time, traces and fault schedules are those of a serial
// loop.
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
// on it, its functional half (pl), and the Report it counts into. The sim
// scheduler runs one process at a time, so none of it needs locking.
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

	pl    *planner
	trace *trace.Recorder // the job's, or the engine's Options.Trace
	done  bool

	stepStart   sim.Time
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

	// wave is the table the streams are playing (see processDemand).
	wave *wave

	// launches[i] has bit s set while GPU i's stream s has a launch open in
	// the running wave (see processDemand).
	launches []uint32

	// curLevel is the superstep currently executing, stamped onto every
	// span the run emits; -1 outside any superstep (WA upload, final
	// copy-back).
	curLevel int32

	// rep is the Report the run counts into as it goes (its Levels are the
	// forward supersteps done, its Faults the recovery work; report adds
	// what only the end knows). waves counts supersteps for SharedStats.
	rep   Report
	waves int64
}

// planner is a run's functional half: the job's kernel, its attribute
// states and the level state machine. It computes one wave after another on
// a goroutine of its own (run), each into the table it is handed, so it is
// at most one wave ahead of the simulation, which hands each table back once
// its streams have played it. Nothing here is touched by the simulation
// while that goroutine lives.
type planner struct {
	eng *Engine
	k   kernels.Kernel

	// states holds one replica per GPU under Strategy-P, or a single
	// shared state under Strategy-S.
	states []kernels.State
	// owned[i] is GPU i's attribute ownership range [lo, hi).
	owned [][2]uint64

	// Traversal state: next is the coming wave's page set — the full set
	// on a scan (scan is the kernel's ScanKernel), otherwise the level the
	// kernel planned (fk is its FrontierKernel) in direction dir. back is
	// its BackwardKernel (nil without a backward sweep), and backIdx the
	// level the sweep is at. levels counts the forward supersteps computed.
	scan     kernels.ScanKernel
	fk       kernels.FrontierKernel
	back     kernels.BackwardKernel
	next     *bitset.Set
	dir      kernels.Direction
	levels   int32
	backward bool
	backIdx  int32

	args kernels.Args  // backs every kernel call
	wall time.Duration // the kernels' host wall-clock (Report.HostKernelWall)

	// The two tables and the channels they travel on, each with room for
	// both, so no send blocks: todo carries a table to the goroutine to
	// compute into, done carries it computed to the simulation. Closing todo
	// ends the goroutine, which closes done when it returns.
	tables [2]*wave
	todo   chan *wave
	done   chan *wave
}

// wave is one superstep's table: pids lists each GPU's pages back to back
// (GPU i's end at gpuEnd[i]) and res[j] is pids[j]'s kernel result; level,
// backward and dir say which superstep it is, updates sums its attribute
// writes, and final marks the run's last. err or panicked, when set, is how
// the run ends instead: the simulation fails the run at this wave, or
// re-raises the kernel's panic in its own process. A table is in one place
// at a time: todo, the goroutine computing into it, done, or the streams.
type wave struct {
	pids     []slottedpage.PageID
	res      []kernels.Result
	gpuEnd   []int
	level    int32
	backward bool
	dir      kernels.Direction
	updates  int64
	final    bool
	err      error
	panicked any
}

// waveTables keeps wave tables between runs: they keep their backing
// arrays, so a wave allocates nothing for its table once they have grown.
var waveTables = sync.Pool{New: func() any { return new(wave) }}

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
		finished.Put(r.pl.k)
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
		pl:          &planner{eng: e, k: job.Kernel, next: bitset.New(e.graph.NumPages())},
		trace:       cmp.Or(job.Trace, e.opts.Trace),
		launches:    make([]uint32, nGPU),
		inj:         fault.NewInjector(e.opts.Faults),
		curLevel:    -1,
	}
	machine.InjectFaults(r.inj)
	r.setupStates(job.Source)

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
	if ra := int64(e.graph.NumVertices()) * r.raPerV; r.pl.scan != nil && ra > 0 && nGPU == 1 {
		if g := machine.GPUs[0]; g.MemFree() >= e.graph.TopologyBytes()+ra && g.Alloc(ra) == nil {
			r.raResident, r.raPerV = ra, 0
		}
	}
	return r, r.setup()
}

// setupStates derives the kernel's half of Algorithm 1's initialization
// from the strategy: the planner's attribute states, initialized from
// source (one replica per GPU under Strategy-P, a single shared state under
// Strategy-S) and per-GPU ownership ranges, and the run's WA/RA sizing. It
// performs no device allocation.
func (r *run) setupStates(source uint64) {
	e, pl := r.eng, r.pl
	k := pl.k
	nGPU := len(r.machine.GPUs)
	nV := e.graph.NumVertices()
	pl.scan, _ = k.(kernels.ScanKernel)
	pl.fk, _ = k.(kernels.FrontierKernel)
	pl.back, _ = k.(kernels.BackwardKernel)

	proto := k.NewState()
	k.Init(proto, source)
	waBytes := proto.WABytes()
	r.raPerV = kernels.RAPerVertex(k)
	if nV > 0 {
		r.updateBytes = kernels.UpdateBytes(k, waBytes/int64(nV))
	}

	pl.states = []kernels.State{proto}
	if e.opts.Strategy == StrategyS {
		r.perGPUWA = (waBytes + int64(nGPU) - 1) / int64(nGPU)
		chunk := (nV + uint64(nGPU) - 1) / uint64(nGPU)
		for i := 0; i < nGPU; i++ {
			lo := min(uint64(i)*chunk, nV)
			pl.owned = append(pl.owned, [2]uint64{lo, min(lo+chunk, nV)})
		}
		return
	}
	r.perGPUWA = waBytes
	for i := 0; i < nGPU; i++ {
		if i > 0 {
			pl.states = append(pl.states, proto.Clone())
		}
		pl.owned = append(pl.owned, [2]uint64{0, nV})
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
		if n := e.graph.TopologyBytes(); n > m.Spec.MainMemory {
			return fmt.Errorf("core: graph does not fit in main memory and no storage is configured: %w: need %d, %d free", hw.ErrOutOfMemory, n, m.Spec.MainMemory)
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
	// share it; each machine still checks the full budget, so a
	// configuration that could not actually hold the pool fails here.
	if n := r.pool.Budget(); n > m.Spec.MainMemory {
		return fmt.Errorf("%w: need %d, %d free", hw.ErrOutOfMemory, n, m.Spec.MainMemory)
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
// thread: it starts the functional half, uploads the WA, and then plays the
// waves the functional half computes, handing each table back to be
// computed into again, until the kernel finishes or the run aborts. However
// the loop ends — a stream's panic unwinds it too — the functional half's
// goroutine has returned before it does.
func (r *run) loop(p *sim.Proc) {
	r.pl.start()
	defer r.pl.stop()
	r.begin(p)
	for r.abort == nil && !r.done {
		w := <-r.pl.done
		if w.panicked != nil {
			panic(w.panicked) // the kernel's panic is this process's, as if it ran here
		}
		r.waves++
		if r.beginWave(w); r.abort != nil {
			return
		}
		r.streamDemand(p)
		r.endWave(p)
		r.pl.todo <- w
	}
}

// begin uploads the WA to every GPU concurrently (Fig. 5 step 1), with a
// resident RA in the same chunk. A fault that outlasts its retries during
// the upload aborts the run.
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
}

// beginWave opens the superstep w carries, or fails the run with w's error.
func (r *run) beginWave(w *wave) {
	if w.err != nil {
		r.fail(w.err)
		return
	}
	r.wave = w
	r.curLevel = w.level
	r.stepStart = r.env.Now()
	r.beforePages = r.rep.PagesStreamed
	r.beforeBytes = r.rep.BytesToGPU
	if w.dir != kernels.DirNone && !w.backward {
		r.rep.LevelDirs = append(r.rep.LevelDirs, w.dir.String())
	}
	clear(r.launches)
}

// start plans the first wave's pages, here on the calling process, hands
// the run's two wave tables to todo and starts the functional half's
// goroutine.
func (pl *planner) start() {
	pl.begin()
	pl.todo, pl.done = make(chan *wave, len(pl.tables)), make(chan *wave, len(pl.tables))
	for i := range pl.tables {
		pl.tables[i] = waveTables.Get().(*wave)
		pl.todo <- pl.tables[i]
	}
	go pl.run()
}

// stop ends the functional half after the wave it is computing, if any: it
// takes back the tables todo still holds, so the goroutine computes none of
// them, waits for done to close and returns the tables to the pool.
func (pl *planner) stop() {
	close(pl.todo)
	for range pl.todo {
	}
	for range pl.done {
	}
	for i, w := range pl.tables {
		w.err, w.panicked = nil, nil
		waveTables.Put(w)
		pl.tables[i] = nil
	}
}

// run is the functional half's goroutine: it computes wave after wave, each
// into the table todo hands it, and passes each to done, until the last or
// the simulation's stop. A kernel's panic travels in the table it was
// computing.
func (pl *planner) run() {
	defer close(pl.done)
	var w *wave
	defer func() {
		if v := recover(); v != nil {
			w.panicked = v
			pl.done <- w
		}
	}()
	for w = range pl.todo {
		pl.step(w)
		pl.done <- w
		if w.final || w.err != nil {
			return
		}
	}
}

// begin sets the first wave's pages: the whole topology for a scan, the
// kernel's level-0 plan for a traversal.
func (pl *planner) begin() {
	if pl.scan == nil {
		pl.planLevel(0)
		return
	}
	for pid := range pl.eng.graph.NumPages() {
		pl.next.Set(pid)
	}
}

// step computes the coming superstep into w: BeginLevel, every page kernel
// (planWave), the Strategy-P replicas' merge, and the plan of the superstep
// after it, which w.final says there is none of. A traversal past
// kernels.MaxLevels computes nothing and sets w.err.
func (pl *planner) step(w *wave) {
	w.err, w.final = nil, false
	if !pl.backward && pl.levels > kernels.MaxLevels {
		w.err = fmt.Errorf("core: run exceeded kernels.MaxLevels (%d levels)", kernels.MaxLevels)
		return
	}
	w.level, w.backward, w.dir = pl.levels, pl.backward, pl.dir
	if pl.backward {
		w.level = pl.backIdx
	}
	kernels.BeginLevel(pl.k, pl.states, w.level)
	pl.planWave(w)
	if pl.eng.opts.Strategy == StrategyP && len(pl.states) > 1 {
		pl.k.MergeStates(pl.states)
	}
	w.final = !pl.advance(w.updates > 0)
}

// planWave runs the wave's kernels, GPU by GPU and page by page, into w's
// table. A GPU takes the wave's pages in ascending page ID — under
// Strategy-P with several GPUs page j is GPU j mod N's (§4.1), otherwise
// every GPU takes every page (§4.2). The kernels execute apart from the
// simulation, so virtual time, traces and fault schedules do not depend on
// how long they take; that wall-clock is measured into the report's
// HostKernelWall.
func (pl *planner) planWave(w *wave) {
	t0 := time.Now()
	g, nGPU := pl.eng.graph, len(pl.owned)
	strategyP := pl.eng.opts.Strategy == StrategyP
	split := strategyP && nGPU > 1
	n := pl.next.Count() * nGPU
	w.pids, w.res, w.gpuEnd, w.updates = sized(w.pids, n), sized(w.res, n), w.gpuEnd[:0], 0
	for i := range nGPU {
		rep := 0 // the state replica this GPU works on: its own under Strategy-P
		if strategyP {
			rep = i
		}
		pl.args = kernels.Args{Graph: g, State: pl.states[rep], Level: w.level, OwnedLo: pl.owned[i][0], OwnedHi: pl.owned[i][1],
			Tech: pl.eng.opts.Technique}
		pl.next.ForEach(func(pid int) {
			if split && pid%nGPU != i {
				return
			}
			pl.args.PID, pl.args.Page = slottedpage.PageID(pid), g.Page(slottedpage.PageID(pid))
			w.pids = append(w.pids, pl.args.PID)
			var res kernels.Result
			if w.backward {
				res = pl.back.RunBack(&pl.args)
			} else {
				res = pl.k.Run(&pl.args)
			}
			w.res = append(w.res, res)
			w.updates += res.Updates
		})
		w.gpuEnd = append(w.gpuEnd, len(w.pids))
	}
	pl.wall += time.Since(t0)
}

// advance steps the level state machine past the superstep just computed
// and reports whether another follows: a scan's next iteration (active when
// the superstep wrote any attribute), or the kernel's plan of the coming
// level. An empty plan ends the forward phase; a backward sweep (Betweenness
// Centrality) then re-plans the forward levels deepest first — a vertex's
// level is final once set, so each plan is the forward one's.
func (pl *planner) advance(active bool) bool {
	if !pl.backward {
		pl.levels++
	}
	if pl.scan != nil {
		// Every iteration revisits the full set, which next already holds.
		return pl.scan.EndIteration(pl.states, active)
	}
	if !pl.backward {
		if pl.planLevel(pl.levels) {
			return true
		}
		if pl.back == nil {
			return false
		}
		pl.backward, pl.backIdx = true, pl.levels
	}
	if pl.backIdx--; pl.backIdx < 0 {
		return false
	}
	pl.planLevel(pl.backIdx)
	return true
}

// planLevel has the kernel rebuild next as the page set of the coming level
// and keeps the direction it planned for the superstep's table. It reports
// whether the level has any page.
func (pl *planner) planLevel(level int32) bool {
	pl.dir = pl.fk.PlanLevel(pl.states, level, pl.next)
	return pl.next.Any()
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
	grp := new(sim.Group)
	lo := 0
	for i, hi := range r.wave.gpuEnd {
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
	gpu, g, pid := r.machine.GPUs[gpuIdx], r.eng.graph, r.wave.pids[j]
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
	res := r.wave.res[j]
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
}

// endWave finishes a superstep: cross-GPU sync, iteration bookkeeping, the
// per-iteration WA sync of a scan, and completion after the final wave.
func (r *run) endWave(p *sim.Proc) {
	if r.abort != nil {
		return
	}
	w := r.wave
	r.sync(p, w)
	// The Superstep container span: one traversal level / iteration
	// including its cross-GPU sync, on the framework track; Dir carries the
	// planned traversal direction (0 without direction optimization). The
	// Wave span beside it numbers the wave that carried the superstep.
	now := r.env.Now()
	r.trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Superstep, Page: -1, Level: w.level, Dir: int8(w.dir), Start: r.stepStart, End: now})
	r.trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Wave, Page: r.waves, Level: w.level, Start: r.stepStart, End: now})
	if r.abort != nil {
		return
	}
	if !w.backward {
		r.rep.LevelPages = append(r.rep.LevelPages, r.rep.PagesStreamed-r.beforePages)
		r.rep.LevelBytes = append(r.rep.LevelBytes, r.rep.BytesToGPU-r.beforeBytes)
		r.rep.Levels++
	}
	if w.final {
		r.finish(p)
		return
	}
	if r.pl.scan != nil {
		// Per-iteration WA sync: the updated vector streams back so the host
		// can feed it as next iteration's RA (Eq. 1's 2|WA|); a resident RA is
		// the device's own copy of it, which the next iteration reads in place.
		r.copyWAOut(p)
	}
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
	rep.WABytes = r.pl.states[0].WABytes()
	rep.MTEPS = trace.MTEPS(rep.EdgesTraversed, elapsed)
	rep.Faults.Add(r.inj.Stats())
	rep.State = r.pl.states[0]
	rep.HostKernelWall = r.pl.wall
	return rep
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
	grp := new(sim.Group)
	grp.Add(n)
	for i := range n {
		r.env.Process(fmt.Sprintf("gpu%d", i), func(p *sim.Proc) {
			fn(p, i)
			grp.Done()
		})
	}
	grp.Wait(p)
}
