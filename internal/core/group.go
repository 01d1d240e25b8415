package core

// The superstep engine. Every run is a "wave group": one or more kernels
// over the same graph executing inside one simulation — Engine.Run is a
// group of one. Every superstep the group runs one wave: each member's
// functional kernel work is precomputed in deterministic (GPU, page) order,
// then the union of the members' page demands streams to the GPUs once —
// the first live demander of a page pays the PCI-E copy and every other
// demander's kernel consumes the resident bytes for free. Member writes stay
// separated because each member owns its attribute states and the kernels'
// gather/apply contract defers writes into those states only.
//
// Decoupling "what the kernels compute" from "when the simulation schedules
// them" makes results bit-identical across stream interleavings — including
// interleavings perturbed by injected faults and their retries, and by
// whoever else shares the waves: streaming, caching and faults only perturb
// virtual timing, never functional results.
//
// Membership changes at wave boundaries: the admit callback is polled
// between waves, joiners upload their WA and enter the next wave, finished
// members copy their WA out and retire. A member whose WA does not fit even
// after dropping the shared page cache is declined (the caller re-runs it on
// a machine of its own); a member whose fault budget is exhausted aborts
// alone — the next live demander of each page it was serving takes over the
// copy with a fresh retry budget, so a faulted member never stalls its group.

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

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
// (its WA did not fit the shared machine) and should be re-run alone.
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
	idx int // index into driver.outcomes

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
	// large pages: all small pages stream first, then all large ones, to
	// avoid switching between the two kernel variants, paper §3.2) and
	// parts[phase][gpu] its partition; resBase[phase][gpu] is where that
	// partition's kernel results start in r.kres. All keep their backing
	// arrays across waves.
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

// driver owns one run of the engine: the plant and the member roster.
type driver struct {
	*plant
	eng *Engine
	// raPerV is the RABuf width per page slot: the widest RAPerVertex the
	// group has admitted.
	raPerV int64

	active   []*groupMember
	admit    func() []SharedJob
	outcomes []SharedOutcome
	stats    SharedStats
	wave     int64

	// The running phase's union demand (see mergeDemand): pids lists each
	// GPU's demanded pages back to back, and dem[off[j]:off[j+1]] are the
	// claims on pids[j]. cur is the merge's per-member cursor. All four keep
	// their backing arrays, so a wave allocates nothing here once they have
	// grown to the sum of the members' lists.
	pids []slottedpage.PageID
	off  []int
	dem  []demand
	cur  []int
}

// Run executes kernel k to completion and reports timing and metrics: a
// wave group of one, on a machine whose spare device memory is all page
// cache.
func (e *Engine) Run(k kernels.Kernel) (*Report, error) {
	outs, _, err := e.RunShared([]SharedJob{{Kernel: k, Source: e.opts.Source, Faults: e.opts.Faults}}, nil)
	if err != nil {
		return nil, err
	}
	if outs[0].Declined {
		hint := "use Strategy-S to spread WA across GPUs or add GPUs"
		if e.opts.Strategy == StrategyS {
			hint = "the graph's WA exceeds the machine's total device memory"
		}
		return nil, fmt.Errorf("%w: WA does not fit beside the stream buffers (%s)", ErrWontFit, hint)
	}
	return outs[0].Report, outs[0].Err
}

// streamBufBytes is one GPU's streaming-buffer footprint: SPBuf + LPBuf per
// stream plus an RABuf sized for the densest page's subvector at raPerV
// bytes per slot.
func (e *Engine) streamBufBytes(raPerV int64) int64 {
	cfg := e.graph.Config()
	return int64(e.opts.Streams) * (2*int64(cfg.PageSize) + int64(cfg.MaxSlotsPerPage())*raPerV)
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
	d, roster, err := e.newDriver(jobs, admit)
	if err != nil {
		return nil, SharedStats{}, err
	}
	d.env.Process("gts-framework", func(p *sim.Proc) { d.loop(p, roster) })
	if d.stats.Elapsed, err = d.env.Run(); err != nil {
		return nil, SharedStats{}, err
	}
	return d.outcomes, d.stats, nil
}

// newDriver performs Algorithm 1's initialization, roster first: a fresh
// simulated machine; one set of stream buffers, which serves every member
// (the wave protocol streams each page once), with an RABuf as wide as the
// roster's widest kernel needs; each initial member's WA; and the page cache
// in whatever device memory is left (§3.3). It returns the initial members
// that fit.
func (e *Engine) newDriver(jobs []SharedJob, admit func() []SharedJob) (*driver, []*groupMember, error) {
	env := sim.NewEnv()
	machine, err := hw.NewMachine(env, e.spec, int64(e.graph.Config().PageSize))
	if err != nil {
		return nil, nil, err
	}
	nGPU := len(machine.GPUs)
	d := &driver{eng: e, admit: admit, plant: &plant{
		env:         env,
		machine:     machine,
		inflight:    map[slottedpage.PageID]*sim.Signal{},
		caches:      make([]*hw.BufferPool, nGPU),
		cacheBytes:  make([]int64, nGPU),
		cacheTarget: make([]int64, nGPU),
	}}
	for _, job := range jobs {
		if job.Kernel != nil {
			d.raPerV = max(d.raPerV, job.Kernel.RAPerVertex())
		}
	}
	bufBytes := e.streamBufBytes(d.raPerV)
	for _, g := range machine.GPUs {
		if err := g.Alloc(bufBytes); err != nil {
			return nil, nil, fmt.Errorf("%w: stream buffers %d on %s: %v", ErrWontFit, bufBytes, g.Spec.Name, err)
		}
	}
	roster := d.enroll(jobs)
	// A closed roster's cache takes all of the remaining memory. When admit
	// can bring joiners whose WA needs are unknown, half of it stays free as
	// WA headroom; a joiner that outgrows the headroom still falls back to
	// dropping the cache (see newMember).
	return d, roster, d.setup(e, admit != nil)
}

// loop is Algorithm 1's repeat-until loop, run as the controlling CPU
// thread: admit at every wave boundary, then run waves until the roster
// empties.
func (d *driver) loop(p *sim.Proc, roster []*groupMember) {
	for _, m := range roster {
		d.beginMember(p, m)
	}
	for {
		if d.admit != nil {
			for _, m := range d.enroll(d.admit()) {
				d.beginMember(p, m)
			}
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

// enroll gives every job its outcome slot and turns the ones that fit into
// members with their WA allocated. Jobs whose WA cannot fit are declined;
// malformed jobs get an error outcome.
func (d *driver) enroll(jobs []SharedJob) []*groupMember {
	var members []*groupMember
	for _, job := range jobs {
		idx := len(d.outcomes)
		d.outcomes = append(d.outcomes, SharedOutcome{})
		m, err := d.newMember(job, idx)
		switch {
		case errors.Is(err, ErrWontFit):
			d.outcomes[idx] = SharedOutcome{Declined: true}
			d.stats.Declined++
		case err != nil:
			d.outcomes[idx] = SharedOutcome{Err: err}
		default:
			d.stats.Members++
			members = append(members, m)
		}
	}
	return members
}

// newMember builds the member's run over the shared plant and allocates its
// per-GPU WA. The member clones the engine options with its own source,
// fault plan and recorder.
func (d *driver) newMember(job SharedJob, idx int) (*groupMember, error) {
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
	r := &run{
		plant:    d.plant,
		eng:      &Engine{spec: e.spec, graph: e.graph, opts: opts},
		k:        job.Kernel,
		workers:  opts.HostWorkers,
		inj:      fault.NewInjector(opts.Faults),
		curLevel: -1,
	}
	numPages := e.graph.NumPages()
	r.pidPool.New = func() any { return bitset.New(numPages) }
	r.setupStates()

	// Device allocation: the member's WA, plus the RABuf's growth when a
	// joiner's RA is wider than any the group has seen. If it does not fit,
	// drop that GPU's page cache (the same degradation an OOM launch
	// performs) and retry; still no fit means decline.
	need := r.perGPUWA + e.streamBufBytes(max(d.raPerV, r.raPerV)) - e.streamBufBytes(d.raPerV)
	for i, g := range d.machine.GPUs {
		if g.Alloc(need) == nil {
			continue
		}
		if d.caches[i] != nil {
			g.Free(d.cacheBytes[i])
			d.caches[i] = nil
			d.cacheBytes[i] = 0
			d.stats.CacheShrinks++
			if g.Alloc(need) == nil {
				continue
			}
		}
		for j := 0; j < i; j++ {
			d.machine.GPUs[j].Free(need)
		}
		return nil, fmt.Errorf("%w: member WA %d on %s", ErrWontFit, r.perGPUWA, g.Spec.Name)
	}
	d.raPerV = max(d.raPerV, r.raPerV)
	return &groupMember{r: r, idx: idx, locals: make([]pidSet, len(d.machine.GPUs))}, nil
}

// freeMemberWA releases a member's per-GPU WA reservation.
func (d *driver) freeMemberWA(m *groupMember) {
	for _, g := range d.machine.GPUs {
		g.Free(m.r.perGPUWA)
	}
}

// beginMember uploads the member's WA to every GPU concurrently (Fig. 5
// step 1), seeds its frontier and puts it on the roster — the member's half
// of Algorithm 1's initialization, at join time. A member that faults out
// during the upload gets an error outcome instead.
func (d *driver) beginMember(p *sim.Proc, m *groupMember) {
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
		d.freeMemberWA(m)
		d.outcomes[m.idx] = SharedOutcome{Err: r.abort}
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
		// A planning kernel owns its frontier: replace the seed with the
		// level-0 plan (direction choice + exact page set).
		r.planLevel(0, m.next)
	} else {
		for pid := 0; pid < g.NumPages(); pid++ {
			m.next.Set(pid)
		}
	}
	d.active = append(d.active, m)
}

// beginWave precomputes one member's functional kernel work for the wave in
// deterministic order: BeginLevel, then the small-page jobs, then the
// large-page jobs, each GPU by GPU. Streaming never touches functional
// state, so the stream processes that follow only model when each
// execution happens on the hardware.
func (d *driver) beginWave(m *groupMember) {
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
	nJobs := 0
	for phase, list := range m.lists {
		m.parts[phase] = r.eng.partition(m.parts[phase], list, nGPU)
		m.resBase[phase] = m.resBase[phase][:0]
		for _, part := range m.parts[phase] {
			m.resBase[phase] = append(m.resBase[phase], nJobs)
			nJobs += len(part)
		}
	}
	r.kres = sized(r.kres, nJobs)
	for phase := range m.lists {
		r.jobs = appendJobs(sized(r.jobs, nJobs), m.parts[phase])
		if len(r.jobs) > 0 {
			r.computeKernels(r.jobs, lvl, m.locals, m.backward)
		}
	}
}

// sized returns s emptied, with room for at least n elements.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// mergeDemand appends one GPU's union page demand for the phase to the
// demand table: a k-way merge of the live members' sorted page lists, so
// pages come out in ascending ID order with each page's demanders in join
// order.
func (d *driver) mergeDemand(phase, gpu int) {
	d.cur = d.cur[:0]
	for range d.active {
		d.cur = append(d.cur, 0)
	}
	for {
		var next slottedpage.PageID
		found := false
		for i, m := range d.active {
			if m.r.abort != nil {
				continue
			}
			list := m.parts[phase][gpu]
			if c := d.cur[i]; c < len(list) && (!found || list[c] < next) {
				next, found = list[c], true
			}
		}
		if !found {
			return
		}
		d.pids = append(d.pids, next)
		d.off = append(d.off, len(d.dem))
		for i, m := range d.active {
			if m.r.abort != nil {
				continue
			}
			list, base := m.parts[phase][gpu], m.resBase[phase][gpu]
			if c := d.cur[i]; c < len(list) && list[c] == next {
				d.dem = append(d.dem, demand{m, base + c})
				d.cur[i]++
			}
		}
	}
}

// streamPhase streams one phase's union page demand to the GPUs: under
// Strategy-P with several GPUs each streams its own share of the pages,
// otherwise every GPU streams all of them (see partition), fanned out over
// the GPU's stream processes.
func (d *driver) streamPhase(p *sim.Proc, phase int) {
	streams := d.eng.opts.Streams
	grp := sim.NewGroup(d.env)
	// Size the demand table once, to the sum of the lists it merges.
	n := 0
	for _, m := range d.active {
		for _, part := range m.parts[phase] {
			n += len(part)
		}
	}
	d.pids, d.off, d.dem = sized(d.pids, n), sized(d.off, n+1), sized(d.dem, n)
	for i := range d.machine.GPUs {
		lo := len(d.pids)
		d.mergeDemand(phase, i)
		hi := len(d.pids)
		for s := 0; s < streams && s < hi-lo; s++ {
			i, s := i, s
			grp.Add(1)
			d.env.Process(streamProcName(i, s), func(p *sim.Proc) {
				for j := lo + s; j < hi; j += streams {
					d.processDemand(p, i, s, j)
				}
				grp.Done()
			})
		}
	}
	d.off = append(d.off, len(d.dem))
	grp.Wait(p)
}

// processDemand handles the union demand for one page on one GPU stream —
// the cache / main-memory-buffer / storage decision chain of Algorithm 1
// lines 16-26: resolve residency once, pay the topology copy once (the
// first live demander is the issuer; if its fault budget exhausts, the next
// takes over with a fresh budget), then serve every live member's RA copy
// and kernel launch in join order. j indexes the demand table.
func (d *driver) processDemand(p *sim.Proc, gpuIdx, stream, j int) {
	gpu := d.machine.GPUs[gpuIdx]
	g := d.eng.graph
	pid := d.pids[j]
	pageSize := int64(g.Config().PageSize)
	_, count := g.VertexRange(pid)

	// Filter the page's claims in place: each is visited once per wave.
	dem := d.dem[d.off[j]:d.off[j+1]]
	live := dem[:0]
	for _, dm := range dem {
		if dm.m.r.abort == nil {
			live = append(live, dm)
		}
	}
	if len(live) == 0 {
		return
	}

	cache := d.caches[gpuIdx]
	// Algorithm 1 line 16: is the page already in device memory?
	resident := cache != nil && cache.Contains(uint64(pid))
	var payer *groupMember
	// pinned: the payer's fetch took a host-pool pin. The whole wave group
	// shares that single pin: it is held until every member's serving is
	// done, so the host frame cannot be evicted while any member still
	// consumes the page.
	var pinned bool
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
			var err error
			if pinned, err = d.copyPageFor(p, m, gpuIdx, stream, pid, pageSize+raBytes); err != nil {
				m.r.fail(err)
				rest = rest[1:]
				continue
			}
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
		// The functional work already ran exactly once at wave start (see
		// beginWave); here its memoized cycle count occupies the simulated SM
		// pool at whatever virtual time this stream reached the page, so a
		// failed launch leaves the member's state consistent.
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
	if pinned {
		d.pool.Unpin(uint64(pid))
	}
}

// copyPageFor fetches pid into the host page buffer and streams n bytes to
// the GPU on behalf of member m, with m's retry budget and fault
// attribution. On success pinned reports whether the fetch left a host-pool
// pin (not in memory, nor after a bypass read); processDemand holds it until
// every member has been served, so eviction cannot reclaim the host frame
// mid-transfer.
func (d *driver) copyPageFor(p *sim.Proc, m *groupMember, gpuIdx, stream int, pid slottedpage.PageID, n int64) (pinned bool, err error) {
	r := m.r
	if d.inMemory {
		d.hostLookups++
	} else if pinned, err = r.fetchPin(p, pid, gpuIdx, stream); err != nil {
		return false, err
	}
	if err := r.streamCopy(p, d.machine.GPUs[gpuIdx], gpuIdx, stream, pid, n); err != nil {
		if pinned {
			d.pool.Unpin(uint64(pid))
		}
		return false, err
	}
	return pinned, nil
}

// endWave finishes one member's superstep: cross-GPU sync, frontier merge
// (BFS-like) or iteration bookkeeping (scans), backward-sweep stepping, and
// completion.
func (d *driver) endWave(p *sim.Proc, m *groupMember) {
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
	// The Superstep container span: one traversal level / iteration
	// including its cross-GPU sync, on the framework track; Dir carries the
	// planned traversal direction (0 for plain kernels). The Wave span
	// beside it names the group wave that carried the superstep.
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
		// Expand LP runs: kernels mark a large vertex's first page.
		g := r.eng.graph
		merged.ForEach(func(pid int) {
			if g.Kind(slottedpage.PageID(pid)) == slottedpage.LargePage {
				r.eng.expandLPRun(merged, slottedpage.PageID(pid))
			}
		})
		// A planning kernel rebuilds the next frontier itself — this must
		// run before the emptiness test, because bucketed kernels
		// (DeltaSSSP) carry pending work in attribute state even when no
		// page kernel marked a next page.
		r.planLevel(m.level+1, merged)
		release()
		r.putPidSet(m.next)
		m.next = merged
		m.level++
		if !m.next.Any() {
			if m.wantBackward && len(m.levelSets) > 0 {
				// Backward sweep (Betweenness Centrality): replay the
				// recorded levels in reverse, deepest first.
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
	// Per-iteration WA sync: the updated vector streams back so the host
	// can feed it as next iteration's RA (Eq. 1's 2|WA|).
	r.copyWAOut(p)
}

// finishMember performs the member's final WA copy-back (data
// synchronization, Fig. 2 step 3) and closes its Run span, which covers the
// whole execution on the framework track — the run → superstep → stream
// hierarchy. The member retires from the roster at the wave boundary.
func (d *driver) finishMember(p *sim.Proc, m *groupMember) {
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
func (d *driver) retireFinished() {
	alive := d.active[:0]
	for _, m := range d.active {
		r := m.r
		if !m.done && r.abort == nil {
			alive = append(alive, m)
			continue
		}
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
	d.active = alive
}

// memberReport assembles a member's Report from its own accumulators (the
// machine's GPU and storage counters aggregate every member).
func (d *driver) memberReport(m *groupMember) *Report {
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
	// Injection counts come from the injector, recovery counts from the
	// run's policy; fstats' injection fields are zero, so Add merges cleanly.
	rep.Faults = r.inj.Stats()
	rep.Faults.Add(r.fstats)
	rep.MTEPS = trace.MTEPS(r.edgesTraversed, elapsed)
	return rep
}
