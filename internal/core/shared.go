package core

// Multi-query topology sharing: several kernels over the same graph execute
// inside one simulation as a "wave group". Every superstep the group runs
// one shared wave: each member's functional kernel work is precomputed
// exactly as a solo run would (same deterministic (GPU, page) order, same
// state mutations), then the union of the members' page demands streams to
// the GPUs once — the first live demander of a page pays the PCI-E copy and
// every other demander's kernel consumes the resident bytes for free. Member
// writes stay separated because each member owns its attribute states and
// the kernels' gather/apply contract defers writes into those states only.
//
// Because streaming, caching and faults only perturb virtual timing — never
// functional results (see phase) — a member's final state is byte-identical
// to its solo run's, no matter who else shares its waves.
//
// Membership changes at wave boundaries: the admit callback is polled
// between waves, joiners upload their WA and enter the next wave, finished
// members copy their WA out and retire. A member whose WA does not fit even
// after dropping the shared page cache is declined (the caller falls back
// to a solo run); a member whose fault budget is exhausted aborts alone —
// the next live demander of each page it was serving takes over the copy
// with a fresh retry budget, so a faulted member never stalls its group.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/bufpool"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// sharedRABudget sizes the group RABuf per page slot. Members' RA widths
// differ per kernel; the group reserves a fixed per-slot allowance instead
// of any one kernel's exact width (memory accounting, not correctness).
const sharedRABudget = 16

// SharedJob describes one member of a shared run. Faults and Trace are
// per-member: each member draws from its own injector and emits spans into
// its own recorder (nil Trace falls back to the engine's recorder).
type SharedJob struct {
	Kernel kernels.Kernel
	Source uint64
	Faults *fault.Plan
	Trace  *trace.Recorder
}

// SharedOutcome is one member's result. Exactly one of Report, Err, or
// Declined is meaningful: Declined means the member could not be admitted
// (its WA did not fit the shared machine) and should run solo instead.
type SharedOutcome struct {
	Report   *Report
	Err      error
	Declined bool
}

// SharedStats aggregates group-level accounting across the whole run.
type SharedStats struct {
	// Members admitted (excludes declined); Declined counts WA-won't-fit
	// rejections; Waves is how many shared supersteps the group executed.
	Members  int
	Declined int
	Waves    int64
	// PageCopies counts topology page copies paid over PCI-E;
	// SharedPageCopies is how many of those served more than one member;
	// Servings counts member-kernel consumptions of streamed pages (the
	// fan-out total; Servings/PageCopies is the amortization factor).
	PageCopies       int64
	SharedPageCopies int64
	Servings         int64
	// PageBytesStreamed is topology bytes paid once; BytesSaved is the
	// host-to-device traffic fan-out avoided ((n-1) x pageSize per shared
	// copy); BytesToGPU sums every member's actual paid traffic (WA + RA +
	// topology); StorageBytes sums member storage reads.
	PageBytesStreamed int64
	BytesSaved        int64
	BytesToGPU        int64
	StorageBytes      int64
	// EdgesTraversed sums member edge work; Elapsed is the group's virtual
	// makespan; CacheShrinks counts page-cache drops made to fit a joining
	// member's WA.
	EdgesTraversed int64
	CacheShrinks   int64
	Elapsed        sim.Time
}

// AmortizedBytesPerJob is the mean host-to-device traffic each member paid.
func (s SharedStats) AmortizedBytesPerJob() float64 {
	if s.Members == 0 {
		return 0
	}
	return float64(s.BytesToGPU) / float64(s.Members)
}

// AggregateMTEPS is the group's combined traversal throughput over its
// virtual makespan.
func (s SharedStats) AggregateMTEPS() float64 {
	return trace.MTEPS(s.EdgesTraversed, s.Elapsed)
}

// groupMember is one job's per-wave traversal state inside a group.
type groupMember struct {
	r   *run
	idx int // index into sharedDriver.outcomes

	bfsLike      bool
	wantBackward bool
	backKernel   kernels.BackwardKernel

	next      pidSet   // current frontier (BFS-like) or the full set (scans)
	locals    []pidSet // per-GPU next-page accumulation for the running wave
	levelSets []pidSet // recorded forward frontiers for the backward sweep
	level     int32
	backward  bool
	backIdx   int

	joinedAt    sim.Time
	stepStart   sim.Time
	stepActive  bool
	beforePages int64
	beforeBytes int64
	// lists[phase] is this wave's page list (phase 0 = small pages, 1 =
	// large pages) and parts[phase][gpu] its partition, in the same order a
	// solo phase() builds; resBase[phase][gpu] is where that partition's
	// kernel results start in r.kres. All keep their backing arrays across
	// waves.
	lists   [2][]slottedpage.PageID
	parts   [2][][]slottedpage.PageID
	resBase [2][]int
	done    bool
}

// demand is one member's claim on a (GPU, page) of the running wave: the
// member and the index of its precomputed kernel result in m.r.kres.
type demand struct {
	m   *groupMember
	res int
}

// waveLevel is the superstep index the current wave runs at for this
// member: the traversal level forward, the replayed level backward.
func (m *groupMember) waveLevel() int32 {
	if m.backward {
		return int32(m.backIdx)
	}
	return m.level
}

// sharedDriver owns one shared run: the single simulated machine, the
// shared plant (caches, main-memory buffer, inflight reads) and the member
// roster.
type sharedDriver struct {
	eng     *Engine
	env     *sim.Env
	machine *hw.Machine

	caches      []*hw.BufferPool
	cacheBytes  []int64
	cacheTarget []int64
	buffer      *hw.BufferPool
	pool        *bufpool.Pool
	inMemory    bool
	inflight    map[slottedpage.PageID]*sim.Signal

	active   []*groupMember
	pending  []SharedJob
	admit    func() []SharedJob
	outcomes []SharedOutcome
	stats    SharedStats
	wave     int64
}

// RunShared executes jobs as one wave group on a single simulated machine.
// admit, when non-nil, is polled at every wave boundary for late joiners
// (it must return quickly and never block on virtual time; return nil when
// nothing is waiting). Outcomes are indexed by admission order: the initial
// jobs first, then admitted batches in the order admit returned them.
func (e *Engine) RunShared(jobs []SharedJob, admit func() []SharedJob) ([]SharedOutcome, SharedStats, error) {
	if len(jobs) == 0 && admit == nil {
		return nil, SharedStats{}, fmt.Errorf("core: RunShared needs at least one job or an admit callback")
	}
	env := sim.NewEnv()
	pageSize := int64(e.graph.Config().PageSize)
	machine, err := hw.NewMachine(env, e.spec, pageSize)
	if err != nil {
		return nil, SharedStats{}, err
	}
	d := &sharedDriver{
		eng:      e,
		env:      env,
		machine:  machine,
		inflight: map[slottedpage.PageID]*sim.Signal{},
		pending:  jobs,
		admit:    admit,
	}

	// Group stream buffers: one set of SPBuf/LPBuf/RABuf per stream serves
	// every member, since the wave protocol streams each page once.
	raBuf := int64(e.graph.Config().MaxSlotsPerPage()) * sharedRABudget
	bufBytes := int64(e.opts.Streams) * (2*pageSize + raBuf)
	for _, g := range machine.GPUs {
		if err := g.Alloc(bufBytes); err != nil {
			return nil, SharedStats{}, fmt.Errorf("%w: shared stream buffers %d on %s: %v",
				ErrWontFit, bufBytes, g.Spec.Name, err)
		}
	}
	// The machine plant (page caches, main-memory buffer) is built once and
	// shared by every member. A solo run sizes its auto page cache from the
	// memory left after its own WA; a shared run cannot know its members'
	// WA needs up front, so it holds back half the free device memory as WA
	// headroom while the cache is sized. Members whose WA outgrows the
	// headroom still fall back to shrinking the cache (see newMember).
	reserves := make([]int64, len(machine.GPUs))
	for i, g := range machine.GPUs {
		reserves[i] = g.MemFree() / 2
		if err := g.Alloc(reserves[i]); err != nil {
			return nil, SharedStats{}, err
		}
	}
	plant := &run{eng: e, env: env, machine: machine}
	if err := plant.setupMachine(); err != nil {
		return nil, SharedStats{}, err
	}
	for i, g := range machine.GPUs {
		g.Free(reserves[i])
	}
	d.caches, d.cacheBytes, d.cacheTarget = plant.caches, plant.cacheBytes, plant.cacheTarget
	d.buffer, d.pool, d.inMemory = plant.buffer, plant.pool, plant.inMemory

	env.Process("gts-shared", func(p *sim.Proc) { d.loop(p) })
	elapsed, err := env.Run()
	if err != nil {
		return nil, SharedStats{}, err
	}
	d.stats.Elapsed = elapsed
	return d.outcomes, d.stats, nil
}

// loop is the group's controlling process: admit at every wave boundary,
// then run shared waves until the roster empties.
func (d *sharedDriver) loop(p *sim.Proc) {
	d.admitJobs(p, d.pending)
	d.pending = nil
	for {
		if d.admit != nil {
			d.admitJobs(p, d.admit())
		}
		if len(d.active) == 0 {
			return
		}
		d.wave++
		d.stats.Waves++
		for _, m := range d.active {
			d.beginWave(m)
		}
		d.streamPhase(p, 0) // small pages
		d.streamPhase(p, 1) // large pages
		for _, m := range d.active {
			d.endWave(p, m)
		}
		d.retireFinished()
	}
}

// admitJobs turns jobs into members: build the member run, allocate its WA
// (shrinking the shared cache if needed), upload its WA and seed its
// frontier. Jobs whose WA cannot fit are declined; jobs that fault out
// during WA upload get an error outcome.
func (d *sharedDriver) admitJobs(p *sim.Proc, jobs []SharedJob) {
	for _, job := range jobs {
		idx := len(d.outcomes)
		d.outcomes = append(d.outcomes, SharedOutcome{})
		m, err := d.newMember(job, idx)
		if err != nil {
			if errors.Is(err, ErrWontFit) {
				d.outcomes[idx] = SharedOutcome{Declined: true}
				d.stats.Declined++
			} else {
				d.outcomes[idx] = SharedOutcome{Err: err}
			}
			continue
		}
		d.stats.Members++
		d.beginMember(p, m)
		if m.r.abort != nil {
			d.freeMemberWA(m)
			d.outcomes[idx] = SharedOutcome{Err: m.r.abort}
			continue
		}
		d.active = append(d.active, m)
	}
}

// newMember builds the member's run over the shared machine and allocates
// its per-GPU WA. The member clones the engine options with its own source,
// fault plan and recorder, but shares the plant by reference: cache and
// cacheBytes slice elements, the main-memory buffer and the inflight map
// are the group's, so a cache drop by one member is visible to all.
func (d *sharedDriver) newMember(job SharedJob, idx int) (*groupMember, error) {
	if job.Kernel == nil {
		return nil, fmt.Errorf("core: shared job has no kernel")
	}
	if err := job.Faults.Validate(); err != nil {
		return nil, err
	}
	e := d.eng
	opts := e.opts
	opts.Source = job.Source
	opts.Faults = job.Faults
	if job.Trace != nil {
		opts.Trace = job.Trace
	}
	me := &Engine{spec: e.spec, graph: e.graph, opts: opts}
	r := &run{
		eng:         me,
		k:           job.Kernel,
		env:         d.env,
		machine:     d.machine,
		inflight:    d.inflight,
		caches:      d.caches,
		cacheBytes:  d.cacheBytes,
		cacheTarget: d.cacheTarget,
		buffer:      d.buffer,
		pool:        d.pool,
		inMemory:    d.inMemory,
		curLevel:    -1,
		sharedMode:  true,
	}
	r.workers = opts.HostWorkers
	numPages := e.graph.NumPages()
	r.pidPool.New = func() any { return bitset.New(numPages) }
	r.inj = fault.NewInjector(opts.Faults)
	r.setupStates()

	// Per-member WA allocation. If it does not fit, drop that GPU's shared
	// page cache (the same degradation an OOM launch performs) and retry;
	// still no fit means decline.
	for i, g := range d.machine.GPUs {
		if g.Alloc(r.perGPUWA) == nil {
			continue
		}
		if d.caches[i] != nil {
			g.Free(d.cacheBytes[i])
			d.caches[i] = nil
			d.cacheBytes[i] = 0
			d.stats.CacheShrinks++
			if g.Alloc(r.perGPUWA) == nil {
				continue
			}
		}
		for j := 0; j < i; j++ {
			d.machine.GPUs[j].Free(r.perGPUWA)
		}
		return nil, fmt.Errorf("%w: member WA %d on %s in shared run", ErrWontFit, r.perGPUWA, g.Spec.Name)
	}
	return &groupMember{r: r, idx: idx, locals: make([]pidSet, len(d.machine.GPUs))}, nil
}

// freeMemberWA releases a member's per-GPU WA reservation.
func (d *sharedDriver) freeMemberWA(m *groupMember) {
	for _, g := range d.machine.GPUs {
		g.Free(m.r.perGPUWA)
	}
}

// beginMember uploads the member's WA to every GPU and seeds its frontier —
// the member-scoped half of Algorithm 1's initialization, at join time.
func (d *sharedDriver) beginMember(p *sim.Proc, m *groupMember) {
	r := m.r
	m.joinedAt = d.env.Now()
	r.parallelGPUs(p, func(p *sim.Proc, i int) {
		t0 := d.env.Now()
		err := r.withRetry(p, i, -1, "WA upload", func() error {
			return d.machine.GPUs[i].CopyChunkIn(p, r.perGPUWA)
		})
		if err != nil {
			r.fail(err)
			return
		}
		r.bytesToGPU += r.perGPUWA
		r.eng.opts.Trace.Add(trace.Span{GPU: i, Stream: -1, Kind: trace.CopyWA, Page: -1, Level: -1, Start: t0, End: d.env.Now()})
	})
	if r.abort != nil {
		return
	}
	g := r.eng.graph
	m.bfsLike = r.k.Class() == kernels.BFSLike
	m.backKernel, m.wantBackward = r.k.(kernels.BackwardKernel)
	m.next = r.getPidSet()
	if m.bfsLike {
		home := g.HomeOf(r.eng.opts.Source)
		m.next.Set(int(home.PID))
		if g.Kind(home.PID) == slottedpage.LargePage {
			r.eng.expandLPRun(m.next, home.PID)
		}
		// Planning kernels replace the seed with the level-0 plan, exactly
		// as a solo framework run does.
		r.planLevel(0, m.next)
	} else {
		for pid := 0; pid < g.NumPages(); pid++ {
			m.next.Set(pid)
		}
	}
}

// beginWave precomputes one member's functional kernel work for the wave in
// the same deterministic order its solo run would: BeginLevel, then the
// small-page jobs, then the large-page jobs. Streaming never touches
// functional state, so computing both phases up front is equivalent to the
// solo interleaving.
func (d *sharedDriver) beginWave(m *groupMember) {
	r := m.r
	if r.abort != nil {
		return
	}
	if !m.backward && m.level > 32000 {
		r.fail(fmt.Errorf("core: traversal exceeded 32000 levels (level vectors are int16)"))
		return
	}
	lvl := m.waveLevel()
	r.curLevel = lvl
	m.stepStart = d.env.Now()
	m.beforePages = r.pagesStreamed
	m.beforeBytes = r.bytesToGPU
	m.stepActive = false
	r.levelUpdates = 0
	if r.fk != nil && !m.backward {
		r.dirs = append(r.dirs, r.curDir)
	}
	r.k.BeginLevel(r.states, lvl)
	for i := range m.locals {
		m.locals[i] = r.getPidSet()
	}

	pages := m.next
	if m.backward {
		pages = m.levelSets[m.backIdx]
	}
	nGPU := len(d.machine.GPUs)
	m.lists[0], m.lists[1] = r.eng.splitByKind(pages, m.lists[0][:0], m.lists[1][:0])
	r.kres = r.kres[:0]
	for phase, list := range m.lists {
		m.parts[phase] = r.eng.partition(m.parts[phase], list, nGPU)
		m.resBase[phase] = m.resBase[phase][:0]
		base := len(r.kres)
		for _, part := range m.parts[phase] {
			m.resBase[phase] = append(m.resBase[phase], base)
			base += len(part)
		}
		r.jobs = appendJobs(r.jobs[:0], m.parts[phase])
		if len(r.jobs) > 0 {
			r.computeKernels(r.jobs, lvl, m.locals, m.backward)
		}
	}
}

// streamPhase streams one phase's union page demand to the GPUs. Per GPU,
// the demands of all live members merge into one page list (ascending page
// ID, members in join order per page) and fan out over the stream procs.
func (d *sharedDriver) streamPhase(p *sim.Proc, phase int) {
	nGPU := len(d.machine.GPUs)
	streams := d.eng.opts.Streams
	grp := sim.NewGroup(d.env)
	for i := 0; i < nGPU; i++ {
		byPid := make(map[slottedpage.PageID][]demand)
		var pids []slottedpage.PageID
		for _, m := range d.active {
			if m.r.abort != nil {
				continue
			}
			for j, pid := range m.parts[phase][i] {
				if byPid[pid] == nil {
					pids = append(pids, pid)
				}
				byPid[pid] = append(byPid[pid], demand{m, m.resBase[phase][i] + j})
			}
		}
		sort.Slice(pids, func(a, b int) bool { return pids[a] < pids[b] })
		n := streams
		if n > len(pids) {
			n = len(pids)
		}
		for s := 0; s < n; s++ {
			i, s := i, s
			grp.Add(1)
			d.env.Process(streamProcName(i, s), func(p *sim.Proc) {
				for idx := s; idx < len(pids); idx += streams {
					d.processDemand(p, i, s, pids[idx], byPid[pids[idx]])
				}
				grp.Done()
			})
		}
	}
	grp.Wait(p)
}

// processDemand is the shared analogue of run.page for one (GPU, page)
// union demand: resolve residency once, pay the topology copy once (the
// first live demander is the issuer; if its fault budget exhausts, the next
// takes over with a fresh budget), then serve every live member's RA copy
// and kernel launch in join order.
func (d *sharedDriver) processDemand(p *sim.Proc, gpuIdx, stream int, pid slottedpage.PageID, dem []demand) {
	gpu := d.machine.GPUs[gpuIdx]
	g := d.eng.graph
	pageSize := int64(g.Config().PageSize)
	_, count := g.VertexRange(pid)

	live := make([]demand, 0, len(dem))
	for _, dm := range dem {
		if dm.m.r.abort == nil {
			live = append(live, dm)
		}
	}
	if len(live) == 0 {
		return
	}

	cache := d.caches[gpuIdx]
	resident := cache != nil && cache.Contains(uint64(pid))
	var payer *groupMember
	// release drops the payer's host-pool pin. The whole wave group shares
	// that single pin: it is held from the payer's fetch until every
	// member's serving is done, so the host frame cannot be evicted while
	// any member still consumes the page.
	var release func()
	var copyStart, copyEnd sim.Time
	if resident {
		for _, dm := range live {
			dm.m.r.cacheHits++
		}
	} else {
		rest := live
		for len(rest) > 0 {
			m := rest[0].m
			raBytes := int64(count) * m.r.raPerV
			copyStart = d.env.Now()
			rel, err := d.copyPageFor(p, m, gpuIdx, stream, pid, pageSize+raBytes)
			if err != nil {
				m.r.fail(err)
				rest = rest[1:]
				continue
			}
			release = rel
			copyEnd = d.env.Now()
			m.r.pagesStreamed++
			payer = m
			break
		}
		if payer == nil {
			return // every demander's budget exhausted on this page
		}
		d.stats.PageCopies++
		d.stats.PageBytesStreamed += pageSize
		alive := live[:0]
		for _, dm := range live {
			if dm.m.r.abort == nil {
				alive = append(alive, dm)
			}
		}
		live = alive
		if extra := len(live) - 1; extra > 0 {
			d.stats.SharedPageCopies++
			d.stats.BytesSaved += int64(extra) * pageSize
			gpu.NoteSharedCopy(extra, int64(extra)*pageSize)
		}
		// Re-read the cache: a sibling's OOM degradation may have dropped it.
		if cache := d.caches[gpuIdx]; cache != nil {
			cache.Insert(uint64(pid))
		}
	}
	d.stats.Servings += int64(len(live))

	for _, dm := range live {
		m, r := dm.m, dm.m.r
		if r.abort != nil {
			continue
		}
		if m != payer {
			if !resident {
				r.sharedPagesIn++
				r.eng.opts.Trace.Add(trace.Span{GPU: gpuIdx, Stream: stream, Kind: trace.SharedCopy,
					Page: int64(pid), Level: r.curLevel, Start: copyStart, End: copyEnd})
			}
			// RA is member-specific attribute data and always streams per
			// member — only the topology bytes are shared.
			if raBytes := int64(count) * r.raPerV; raBytes > 0 {
				if err := r.streamCopy(p, gpu, gpuIdx, stream, pid, raBytes); err != nil {
					r.fail(err)
					continue
				}
			}
		}
		res := r.kres[dm.res]
		t0 := d.env.Now()
		if err := r.launchKernel(p, gpuIdx, stream, pid, res.Cycles); err != nil {
			r.fail(err)
			continue
		}
		r.eng.opts.Trace.Add(trace.Span{GPU: gpuIdx, Stream: stream, Kind: trace.Kernel,
			Page: int64(pid), Level: r.curLevel, Start: t0, End: d.env.Now()})
		r.kernelBusy += gpu.KernelTime(res.Cycles)
		r.edgesTraversed += res.Edges
		r.updates += res.Updates
		r.levelUpdates += res.Updates
		if res.Active {
			m.stepActive = true
		}
	}
	if release != nil {
		release()
	}
}

// copyPageFor fetches pid into host residency (the shared pool or the
// main-memory buffer) and streams n bytes to the GPU on behalf of member
// m, with m's retry budget and fault attribution. On success it returns
// the release func for the host-pool pin the fetch took (a no-op without
// a pool); processDemand holds it until every member has been served.
func (d *sharedDriver) copyPageFor(p *sim.Proc, m *groupMember, gpuIdx, stream int, pid slottedpage.PageID, n int64) (func(), error) {
	r := m.r
	release := noRelease
	if r.inMemory {
		r.buffer.Contains(uint64(pid)) // counts the MMBuf hit
	} else {
		rel, err := r.fetchPin(p, pid, gpuIdx, stream)
		if err != nil {
			return nil, err
		}
		release = rel
	}
	if err := r.streamCopy(p, d.machine.GPUs[gpuIdx], gpuIdx, stream, pid, n); err != nil {
		release()
		return nil, err
	}
	return release, nil
}

// endWave finishes one member's superstep: cross-GPU sync, frontier merge
// (BFS-like) or iteration bookkeeping (scans), backward-sweep stepping, and
// completion.
func (d *sharedDriver) endWave(p *sim.Proc, m *groupMember) {
	r := m.r
	release := func() {
		for i := range m.locals {
			r.putPidSet(m.locals[i])
			m.locals[i] = nil
		}
	}
	if r.abort != nil {
		release()
		return
	}
	lvl := m.waveLevel()
	r.sync(p, lvl, m.bfsLike)
	now := d.env.Now()
	r.eng.opts.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Superstep, Page: -1, Level: lvl, Dir: int8(r.curDir), Start: m.stepStart, End: now})
	r.eng.opts.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Wave, Page: d.wave, Level: lvl, Start: m.stepStart, End: now})
	if r.abort != nil {
		release()
		return
	}
	if !m.backward {
		r.levelPages = append(r.levelPages, r.pagesStreamed-m.beforePages)
		r.levelBytes = append(r.levelBytes, r.bytesToGPU-m.beforeBytes)
	}

	if m.backward {
		release()
		m.backIdx--
		if m.backIdx < 0 {
			d.finishMember(p, m)
		}
		return
	}
	if m.bfsLike {
		if m.wantBackward {
			m.levelSets = append(m.levelSets, m.next.Clone())
		}
		merged := r.getPidSet()
		for _, l := range m.locals {
			merged.Or(l)
		}
		g := r.eng.graph
		merged.ForEach(func(pid int) {
			if g.Kind(slottedpage.PageID(pid)) == slottedpage.LargePage {
				r.eng.expandLPRun(merged, slottedpage.PageID(pid))
			}
		})
		// Planning kernels rebuild the next frontier before the emptiness
		// test, mirroring the solo framework loop.
		r.planLevel(m.level+1, merged)
		release()
		r.putPidSet(m.next)
		m.next = merged
		m.level++
		if !m.next.Any() {
			if m.wantBackward && len(m.levelSets) > 0 {
				m.backKernel.BeginBackward(r.states, m.level-1)
				m.backward = true
				m.backIdx = len(m.levelSets) - 1
			} else {
				d.finishMember(p, m)
			}
		}
		return
	}
	// Scan-like: every iteration revisits the full set, which m.next
	// already holds.
	m.level++
	active := m.stepActive
	release()
	if !r.k.EndIteration(r.states, active) {
		d.finishMember(p, m)
		return
	}
	// Per-iteration WA sync back to the host (Eq. 1's 2|WA|).
	r.copyWAOut(p)
}

// finishMember performs the member's final WA copy-back and closes its Run
// span. The member retires from the roster at the wave boundary.
func (d *sharedDriver) finishMember(p *sim.Proc, m *groupMember) {
	r := m.r
	r.curLevel = -1
	r.copyWAOut(p)
	if r.abort != nil {
		return
	}
	r.levels = m.level
	r.eng.opts.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Run, Page: -1, Level: -1,
		Start: m.joinedAt, End: d.env.Now()})
	m.done = true
}

// retireFinished removes finished and aborted members from the roster,
// filling their outcomes and releasing their WA.
func (d *sharedDriver) retireFinished() {
	alive := d.active[:0]
	for _, m := range d.active {
		if m.done || m.r.abort != nil {
			d.retire(m)
			continue
		}
		alive = append(alive, m)
	}
	d.active = alive
}

func (d *sharedDriver) retire(m *groupMember) {
	r := m.r
	d.freeMemberWA(m)
	if r.abort != nil {
		d.outcomes[m.idx] = SharedOutcome{Err: r.abort}
	} else {
		d.outcomes[m.idx] = SharedOutcome{Report: d.memberReport(m)}
	}
	d.stats.BytesToGPU += r.bytesToGPU
	d.stats.StorageBytes += r.storageRead
	d.stats.EdgesTraversed += r.edgesTraversed
}

// memberReport assembles a member's per-job Report. The shared machine's
// GPU and storage counters aggregate every member, so the report draws from
// the member's own accumulators instead (kernelBusy, storageRead).
func (d *sharedDriver) memberReport(m *groupMember) *Report {
	r := m.r
	elapsed := d.env.Now() - m.joinedAt
	hits := r.cacheHits
	misses := r.pagesStreamed + r.sharedPagesIn
	cacheRate := 0.0
	if hits+misses > 0 {
		cacheRate = float64(hits) / float64(hits+misses)
	}
	rep := &Report{
		State:          r.states[0],
		Elapsed:        elapsed,
		Levels:         r.levels,
		PagesStreamed:  r.pagesStreamed,
		CacheHits:      r.cacheHits,
		BytesToGPU:     r.bytesToGPU,
		EdgesTraversed: r.edgesTraversed,
		Updates:        r.updates,
		CacheHitRate:   cacheRate,
		BufferHitRate:  r.bufferHitRate(),
		TransferTime:   r.transferTime,
		KernelTime:     r.kernelBusy,
		StorageBytes:   r.storageRead,
		WABytes:        r.states[0].WABytes(),
		LevelPages:     r.levelPages,
		LevelBytes:     r.levelBytes,
		LevelDirs:      r.dirs,
		HostWorkers:    r.workers,
		HostKernelWall: r.hostKernelWall,
		PoolHits:       r.poolHits,
		PoolLoads:      r.poolLoads,
		PoolWaits:      r.poolWaits,
	}
	rep.Faults = r.inj.Stats()
	rep.Faults.Add(r.fstats)
	rep.MTEPS = trace.MTEPS(r.edgesTraversed, elapsed)
	return rep
}
