package core

// The superstep engine. Every run is a "wave group": one or more kernels
// over the same graph executing inside one simulation — RunJob is a group
// of one. Every superstep the group runs one wave, one pass in page
// order: the members' page sets merge into one demand table, the functional
// kernel work runs over it page by page — each member sees its pages in the
// order it would alone, and a page's plain-BFS demanders share one
// execution of it — and then the table streams to the GPUs once: the
// first live demander of a page pays the PCI-E copy and every other
// demander's kernel consumes the resident bytes for free. Member writes stay
// separated because each member owns its attribute states and a page kernel
// writes into those states only.
//
// Decoupling "what the kernels compute" from "when the simulation schedules
// them" makes results bit-identical across stream interleavings — including
// interleavings perturbed by injected faults and their retries, and by
// whoever else shares the waves: streaming, caching and faults only perturb
// virtual timing, never functional results.
//
// The roster is closed when the run starts, as in Algorithm 1: every member
// enrols and uploads its WA before the first wave, and none joins later.
// Finished members copy their WA out and retire at a wave boundary, their
// outcomes filled in. A member whose WA does not fit beside the stream
// buffers and the members enrolled before it is declined: its outcome says
// so, and it can run only with fewer companions — a member declined alone
// never fits this machine (RunJob's ErrWontFit). A member whose fault budget
// is exhausted aborts alone — the next live demander of each page it was
// serving takes over the copy with a fresh retry budget, so a faulted member
// never stalls its group.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// SharedJob describes one member of a shared run — the one declaration of a
// job every layer above aliases. Faults and Trace are per-member: each
// member draws from its own injector and emits spans into its own recorder;
// nil inherits the engine's Options.Faults or Options.Trace.
type SharedJob struct {
	Kernel kernels.Kernel
	Source uint64
	Faults *fault.Plan
	Trace  *trace.Recorder
}

// SharedOutcome is one member's result. Exactly one of the Report, Err, or
// Declined is meaningful: Declined means the member could not be enrolled
// (its WA did not fit beside the members enrolled before it); one declined
// in a group may fit alone, one declined alone never fits.
type SharedOutcome struct {
	Report
	Err      error
	Declined bool
}

// SharedStats aggregates group-level accounting across the whole run.
type SharedStats struct {
	// Waves is how many shared supersteps the group executed.
	Waves int64
	// PageCopies counts topology page copies paid over PCI-E; Servings
	// counts member-kernel consumptions of streamed pages (the fan-out total;
	// Servings/PageCopies is the amortization factor).
	PageCopies int64
	Servings   int64
	// BytesSaved is the host-to-device traffic fan-out avoided ((n-1) x
	// pageSize per shared copy); BytesToGPU sums every member's actual paid
	// traffic (WA + RA + topology); StorageBytes sums member storage reads.
	BytesSaved   int64
	BytesToGPU   int64
	StorageBytes int64
	// EdgesTraversed sums member edge work; Elapsed is the group's virtual
	// makespan.
	EdgesTraversed int64
	Elapsed        sim.Time
}

// demand is one member's claim on a (GPU, page) of the running wave: the
// member and, once planWave has run the page, its kernel's result.
type demand struct {
	m   *member
	res kernels.Result
}

// driver owns one run of the engine: the plant and the member roster.
type driver struct {
	*plant
	// active holds the members from enrolment until they leave, and outs an
	// outcome per enrolled job in job order, filled as each leaves: a failed
	// run fills the outcome of every job not enrolled or still on active
	// (abandon).
	active []*member
	outs   []SharedOutcome
	stats  SharedStats

	// The running wave's demand table (see planWave): union is the live
	// members' page sets ORed together, pids lists each GPU's demanded pages
	// back to back (GPU i's end at gpuEnd[i]), and dem[off[j]:off[j+1]] are
	// the claims on pids[j]. All keep their backing arrays, so a wave
	// allocates nothing here once they have grown to the members' summed
	// demand.
	union  pidSet
	pids   []slottedpage.PageID
	off    []int
	dem    []demand
	gpuEnd []int

	// bfs runs a page once for its plain-BFS demanders (lanes); args backs
	// every kernel call, so none allocates its Args.
	bfs   kernels.BFSGroup
	lanes []kernels.BFSLane
	args  kernels.Args
}

// RunJob executes one job to completion and reports timing and metrics: a
// wave group of one, on a machine whose spare device memory is all page
// cache.
func (e *Engine) RunJob(job SharedJob) (*Report, error) {
	outs, _, err := e.RunShared([]SharedJob{job})
	if err != nil {
		return nil, err
	}
	out := outs[0]
	if out.Declined {
		hint := "use Strategy-S to spread WA across GPUs or add GPUs"
		if e.opts.Strategy == StrategyS {
			hint = "the graph's WA exceeds the machine's total device memory"
		}
		return nil, fmt.Errorf("%w: WA does not fit beside the stream buffers (%s)", ErrWontFit, hint)
	}
	if out.Err != nil {
		return nil, out.Err
	}
	return &out.Report, nil
}

// streamBufBytes is one GPU's streaming-buffer footprint: SPBuf + LPBuf per
// stream plus an RABuf sized for the densest page's subvector at raPerV
// bytes per slot, for the members whose RA streams with the pages.
func (e *Engine) streamBufBytes(raPerV int64) int64 {
	cfg := e.graph.Config()
	return int64(e.opts.Streams) * (2*int64(cfg.PageSize) + int64(cfg.MaxSlotsPerPage())*raPerV)
}

// RunShared executes jobs as one wave group on a single simulated machine
// and returns an outcome per job, in job order. The roster is closed: every
// job enrols before the first wave. A job's outcome is settled as it leaves
// the group — declined or malformed at enrolment, aborted in its WA upload,
// finished or aborted at the wave it retires — and a run that fails gives
// its error to every job it had not settled, and returns it too.
func (e *Engine) RunShared(jobs []SharedJob) ([]SharedOutcome, SharedStats, error) {
	if len(jobs) == 0 {
		return nil, SharedStats{}, fmt.Errorf("core: RunShared needs at least one job")
	}
	d, err := e.newDriver(jobs)
	if err == nil {
		d.env.Process("gts-framework", d.loop)
		d.stats.Elapsed, err = d.env.Run()
		e.device = d.caches // what this run leaves resident, the next run starts with
	}
	if err != nil {
		d.abandon(jobs, err)
		return d.outs, SharedStats{}, err
	}
	return d.outs, d.stats, nil
}

// newDriver performs Algorithm 1's initialization, roster first: a fresh
// simulated machine; one set of stream buffers, which serves every member
// (the wave protocol streams each page once), with an RABuf as wide as the
// roster's widest kernel needs; each member's WA, and its whole RA where
// newMember keeps it resident; and the page cache in all the device memory
// that is left (§3.3), starting from the pages the engine's device carries.
// The driver comes back even on error, for abandon.
func (e *Engine) newDriver(jobs []SharedJob) (*driver, error) {
	env := sim.NewEnv()
	d := &driver{union: bitset.New(e.graph.NumPages())}
	machine, err := hw.NewMachine(env, e.spec, int64(e.graph.Config().PageSize))
	if err != nil {
		return d, err
	}
	nGPU := len(machine.GPUs)
	d.plant = &plant{
		eng:         e,
		env:         env,
		machine:     machine,
		inflight:    map[slottedpage.PageID]*sim.Signal{},
		caches:      make([]*hw.PageCache, nGPU),
		cacheBytes:  make([]int64, nGPU),
		cacheTarget: make([]int64, nGPU),
	}
	var raPerV int64 // the RABuf's width: the roster's widest RA, resident or not
	for _, job := range jobs {
		if job.Kernel != nil {
			raPerV = max(raPerV, kernels.RAPerVertex(job.Kernel))
		}
	}
	bufBytes := e.streamBufBytes(raPerV)
	for _, g := range machine.GPUs {
		if err := g.Alloc(bufBytes); err != nil {
			return d, fmt.Errorf("%w: stream buffers %d on %s: %v", ErrWontFit, bufBytes, g.Spec.Name, err)
		}
	}
	d.enroll(jobs)
	return d, d.setup(e)
}

// abandon gives err to every job of a failed run that it has not settled.
func (d *driver) abandon(jobs []SharedJob, err error) {
	for range jobs[len(d.outs):] {
		d.outs = append(d.outs, SharedOutcome{Err: err})
	}
	for _, m := range d.active {
		d.outs[m.idx] = SharedOutcome{Err: err}
	}
}

// loop is Algorithm 1's repeat-until loop, run as the controlling CPU
// thread: every member uploads its WA, then waves run until the roster
// empties.
func (d *driver) loop(p *sim.Proc) {
	for _, m := range d.active {
		d.beginMember(p, m)
	}
	d.retireFinished() // members whose upload faulted out
	for len(d.active) > 0 {
		d.stats.Waves++
		for _, m := range d.active {
			d.beginWave(m)
		}
		d.planWave()
		d.streamDemand(p)
		for _, m := range d.active {
			d.endWave(p, m)
		}
		d.retireFinished()
	}
}

// enroll turns jobs, in order, into members on active with their WA
// allocated, each with the next outcome slot. A job whose WA cannot fit is
// declined and a malformed one fails; either is settled at once.
func (d *driver) enroll(jobs []SharedJob) {
	for _, job := range jobs {
		m, err := d.newMember(job)
		var out SharedOutcome
		switch {
		case err == nil:
			m.idx = len(d.outs)
			d.active = append(d.active, m)
		case errors.Is(err, ErrWontFit):
			out.Declined = true
		default:
			out.Err = err
		}
		d.outs = append(d.outs, out)
	}
}

// newMember builds the member's run over the shared plant and allocates its
// per-GPU WA. The member takes its source, and its fault plan and recorder or
// the engine's.
func (d *driver) newMember(job SharedJob) (*member, error) {
	if job.Kernel == nil {
		return nil, fmt.Errorf("core: shared job has no kernel")
	}
	if err := job.Faults.Validate(); err != nil {
		return nil, err
	}
	e := d.eng
	// Kernels index their attribute vectors by the source without a check.
	if nV := e.graph.NumVertices(); job.Source >= nV {
		return nil, fmt.Errorf("%w: source %d on a graph of %d vertices", ErrSourceOutOfRange, job.Source, nV)
	}
	faults, rec := e.opts.Faults, e.opts.Trace
	if job.Faults != nil {
		faults = job.Faults
	}
	if job.Trace != nil {
		rec = job.Trace
	}
	m := &member{
		plant:    d.plant,
		k:        job.Kernel,
		source:   job.Source,
		trace:    rec,
		locals:   make([]pidSet, len(d.machine.GPUs)),
		launches: make([]uint32, len(d.machine.GPUs)),
		inj:      fault.NewInjector(faults),
		curLevel: -1,
		lane:     -1,
	}
	numPages := e.graph.NumPages()
	m.pidPool.New = func() any { return bitset.New(numPages) }
	m.setupStates()

	// Device allocation: the member's WA on every GPU, or a decline. The
	// page cache is not built yet (setup follows enrolment), so a WA that
	// does not fit now never will on this run.
	for i, g := range d.machine.GPUs {
		if g.Alloc(m.perGPUWA) != nil {
			for _, prev := range d.machine.GPUs[:i] {
				prev.Free(m.perGPUWA)
			}
			return nil, fmt.Errorf("%w: member WA %d on %s", ErrWontFit, m.perGPUWA, g.Spec.Name)
		}
	}

	// A full scan keeps its whole RA beside its WA, and its page copies
	// carry none, when the machine has one GPU whose free memory still holds
	// the whole topology next to the RA: memory the page cache could never
	// fill. With more GPUs the merged WA sits on GPU 0 (Strategy-P) or in
	// chunks (Strategy-S), so RA streams per page (§3.1). Metrics.WABytes
	// stays WA only.
	_, scan := job.Kernel.(kernels.ScanKernel)
	if ra := int64(e.graph.NumVertices()) * m.raPerV; scan && ra > 0 && len(d.machine.GPUs) == 1 {
		if g := d.machine.GPUs[0]; g.MemFree() >= e.graph.TopologyBytes()+ra && g.Alloc(ra) == nil {
			m.raResident, m.raPerV = ra, 0
		}
	}
	return m, nil
}

// freeMemberWA releases a member's per-GPU WA reservation and its resident
// RA, if it has one (only ever on a one-GPU machine).
func (d *driver) freeMemberWA(m *member) {
	for _, g := range d.machine.GPUs {
		g.Free(m.perGPUWA + m.raResident)
	}
}

// beginMember uploads the member's WA to every GPU concurrently (Fig. 5
// step 1), with its resident RA in the same chunk, and seeds its frontier —
// the member's half of Algorithm 1's initialization. A member
// that faults out during the upload is left aborted, for the retire that
// follows.
func (d *driver) beginMember(p *sim.Proc, m *member) {
	m.joinedAt = d.env.Now()
	for _, c := range d.caches {
		if c != nil {
			m.residentAtStart += int64(c.Len())
		}
	}
	m.parallelGPUs(p, func(p *sim.Proc, i int) {
		t0 := d.env.Now()
		err := m.withRetry(p, i, -1, "WA upload", func() error {
			return d.machine.GPUs[i].CopyChunkIn(p, m.perGPUWA+m.raResident)
		})
		if err != nil {
			m.fail(err)
			return
		}
		m.bytesToGPU += m.perGPUWA + m.raResident
		m.trace.Add(trace.Span{GPU: i, Stream: -1, Kind: trace.CopyWA, Page: -1, Level: -1, Start: t0, End: d.env.Now()})
	})
	if m.abort != nil {
		return
	}
	g := m.eng.graph
	m.scan, _ = m.k.(kernels.ScanKernel)
	m.backKernel, m.wantBackward = m.k.(kernels.BackwardKernel)
	m.next = m.getPidSet()
	if m.scan == nil {
		kernels.MarkVertexPages(g, m.source, m.next, true)
		// A planning kernel owns its frontier: replace the seed with the
		// level-0 plan (direction choice + exact page set).
		m.planLevel(0, m.next)
	} else {
		for pid := 0; pid < g.NumPages(); pid++ {
			m.next.Set(pid)
		}
	}
	if bfs, ok := m.k.(*kernels.BFS); ok {
		m.lane = d.bfs.Join(bfs)
	}
}

// beginWave opens one member's superstep: level bookkeeping, BeginLevel, and
// the page set planWave merges and runs for the member.
func (d *driver) beginWave(m *member) {
	if m.abort != nil {
		return
	}
	if !m.backward && m.level > kernels.MaxLevels {
		m.fail(fmt.Errorf("core: run exceeded kernels.MaxLevels (%d levels)", kernels.MaxLevels))
		return
	}
	lvl := m.waveLevel()
	m.curLevel = lvl
	m.stepStart = d.env.Now()
	m.beforePages = m.pagesStreamed
	m.beforeBytes = m.bytesToGPU
	m.stepActive = false
	m.levelUpdates = 0
	if m.fk != nil && !m.backward {
		m.dirs = append(m.dirs, m.curDir.String())
	}
	kernels.BeginLevel(m.k, m.states, lvl)
	clear(m.launches)
	for i := range m.locals {
		m.locals[i] = m.getPidSet()
	}
	m.pages = m.next
	if m.backward {
		m.pages = m.levelSets[m.backIdx]
	}
}

// sized returns s emptied, with room for at least n elements.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// planWave is the functional half of a wave: it builds the demand table and
// runs every row's kernels, GPU by GPU and page by page. A GPU's rows walk
// the union of the live members' page sets in ascending page ID — under
// Strategy-P with several GPUs page j is GPU j mod N's (§4.1), otherwise
// every GPU takes every page (§4.2) — and list each page's demanders in job
// order. The kernels execute between sim events, so virtual time, traces and
// fault schedules do not depend on how long they take; that wall-clock is
// measured once and divided among the live members by their kernel jobs, so
// the members' hostKernelWall sum to it.
func (d *driver) planWave() {
	t0 := time.Now()
	nGPU := len(d.machine.GPUs)
	split := d.eng.opts.Strategy == StrategyP && nGPU > 1
	copies := nGPU // how many GPUs run each demanded page
	if split {
		copies = 1
	}
	// Size the table once, to the members' summed demand.
	d.union.Reset()
	n := 0
	for _, m := range d.active {
		if m.abort == nil {
			d.union.Or(m.pages)
			n += m.pages.Count() * copies
		}
	}
	d.pids, d.dem, d.gpuEnd = sized(d.pids, n), sized(d.dem, n), d.gpuEnd[:0]
	d.off = append(sized(d.off, n+1), 0)
	for i := range nGPU {
		j := len(d.pids)
		d.union.ForEach(func(pid int) {
			if split && pid%nGPU != i {
				return
			}
			d.pids = append(d.pids, slottedpage.PageID(pid))
			for _, m := range d.active {
				if m.abort == nil && m.pages.Get(pid) {
					d.dem = append(d.dem, demand{m: m})
				}
			}
			d.off = append(d.off, len(d.dem))
		})
		d.gpuEnd = append(d.gpuEnd, len(d.pids))
		for ; j < len(d.pids); j++ {
			d.runPage(i, d.pids[j], d.dem[d.off[j]:d.off[j+1]])
		}
	}
	wall := time.Since(t0)
	for _, m := range d.active {
		if m.abort == nil && len(d.dem) > 0 {
			m.hostKernelWall += wall * time.Duration(m.pages.Count()*copies) / time.Duration(len(d.dem))
		}
	}
}

// runPage runs page pid of GPU gpu for its demanders, leaving each kernel's
// result in its claim. Plain-BFS demanders are offered to the group kernel,
// which takes two or more; every other claim — a lone demander, DirBFS, SSSP,
// the scans, a backward sweep — runs as it does in a group of one.
func (d *driver) runPage(gpu int, pid slottedpage.PageID, dem []demand) {
	rep := 0 // the state replica this GPU works on: its own under Strategy-P
	if d.eng.opts.Strategy == StrategyP {
		rep = gpu
	}
	// The page, ownership range and technique are every member's.
	g, owned := d.eng.graph, dem[0].m.owned[gpu]
	d.args = kernels.Args{Graph: g, PID: pid, Page: g.Page(pid), OwnedLo: owned[0], OwnedHi: owned[1], Tech: d.eng.opts.Technique}
	grouped := false
	if len(dem) > 1 {
		d.lanes = d.lanes[:0]
		for i := range dem {
			if m := dem[i].m; m.lane >= 0 {
				d.lanes = append(d.lanes, kernels.BFSLane{Lane: m.lane, State: m.states[rep], Level: m.curLevel, NextPIDs: m.locals[gpu], Res: &dem[i].res})
			}
		}
		grouped = d.bfs.Run(&d.args, gpu, d.lanes)
	}
	for i := range dem {
		if m := dem[i].m; !grouped || m.lane < 0 {
			d.args.State, d.args.Level, d.args.NextPIDs = m.states[rep], m.curLevel, m.locals[gpu]
			if m.backward {
				dem[i].res = m.backKernel.RunBack(&d.args)
			} else {
				dem[i].res = m.k.Run(&d.args)
			}
		}
	}
}

// streamDemand streams the demand table to the GPUs: under Strategy-P with
// several GPUs each streams its own share of the pages, otherwise every GPU
// streams all of them (see planWave), handed out in page order to the GPU's
// stream processes.
func (d *driver) streamDemand(p *sim.Proc) {
	grp := sim.NewGroup(d.env)
	lo := 0
	for i, hi := range d.gpuEnd {
		// The GPU's streams share one cursor and each takes the next page when
		// it goes idle (one process runs at a time, so no lock): requests reach
		// each storage device's FIFO in page order, where a fixed stride per
		// stream scrambles them and turns a sequential scan into random reads.
		next := lo
		lo = hi
		for s := range min(d.eng.opts.Streams, hi-next) {
			grp.Add(1)
			d.env.Process(streamProcName(i, s), func(p *sim.Proc) {
				for next < hi {
					j := next
					next++
					d.processDemand(p, i, s, j)
				}
				grp.Done()
			})
		}
	}
	grp.Wait(p)
}

// processDemand handles the union demand for one page on one GPU stream —
// the cache / main-memory-buffer / storage decision chain of Algorithm 1
// lines 16-26: resolve residency once, pay the topology copy once (the
// first live demander is the issuer; if its fault budget exhausts, the next
// takes over with a fresh budget), then serve every live member's RA copy
// (none for a member whose RA is resident) and kernel in job order. A
// kernel for a page that needed no copy for its member runs inside the
// launch the stream already has open for that member in this wave, or opens
// one; a copy for the member closes it, as a queued kernel cannot read bytes
// a later copy on its stream brings in. j indexes the demand table.
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
		if dm.m.abort == nil {
			live = append(live, dm)
		}
	}
	if len(live) == 0 {
		return
	}

	cache := d.caches[gpuIdx]
	// Algorithm 1 line 16: is the page already in device memory?
	resident := cache != nil && cache.Contains(uint64(pid))
	var payer *member
	// pinned: the payer's fetch took a host-pool pin. The whole wave group
	// shares that single pin: it is held until every member's serving is
	// done, so the host frame cannot be evicted while any member still
	// consumes the page.
	var pinned bool
	var copyStart, copyEnd sim.Time
	if resident {
		for _, dm := range live {
			dm.m.cacheHits++
		}
	} else {
		rest := live
		for len(rest) > 0 {
			m := rest[0].m
			raBytes := int64(count) * m.raPerV
			copyStart = d.env.Now()
			var err error
			if pinned, err = d.copyPageFor(p, m, gpuIdx, stream, pid, pageSize+raBytes); err != nil {
				m.fail(err)
				rest = rest[1:]
				continue
			}
			copyEnd = d.env.Now()
			m.pagesStreamed++
			payer = m
			break
		}
		if payer == nil {
			return // every demander's budget exhausted on this page
		}
		d.stats.PageCopies++
		alive := live[:0]
		for _, dm := range live {
			if dm.m.abort == nil {
				alive = append(alive, dm)
			}
		}
		live = alive
		if extra := len(live) - 1; extra > 0 {
			d.stats.BytesSaved += int64(extra) * pageSize
		}
		// Re-read the cache: a sibling's OOM degradation may have dropped it.
		if cache := d.caches[gpuIdx]; cache != nil {
			cache.Insert(uint64(pid))
		}
	}
	d.stats.Servings += int64(len(live))

	bit := uint32(1) << stream
	for _, dm := range live {
		m := dm.m
		if m.abort != nil {
			continue
		}
		copied := !resident
		if m != payer {
			if !resident {
				m.sharedPagesIn++
				m.trace.Add(trace.Span{GPU: gpuIdx, Stream: stream, Kind: trace.SharedCopy,
					Page: int64(pid), Level: m.curLevel, Start: copyStart, End: copyEnd})
			}
			// RA is member-specific attribute data and streams per member
			// unless it is resident — only the topology bytes are shared.
			if raBytes := int64(count) * m.raPerV; raBytes > 0 {
				if err := m.streamCopy(p, gpu, gpuIdx, stream, pid, raBytes); err != nil {
					m.fail(err)
					continue
				}
				copied = true
			}
		}
		// The functional work already ran exactly once, before the wave's
		// streams started (planWave); here its memoized cycle count occupies
		// the simulated SM pool at whatever virtual time this stream reached
		// the page, so a failed launch leaves the member's state consistent.
		res := dm.res
		t0 := d.env.Now()
		if open := &m.launches[gpuIdx]; copied || *open&bit == 0 {
			if err := m.launchKernel(p, gpuIdx, stream, pid, res.Cycles); err != nil {
				m.fail(err)
				continue
			}
			if copied {
				*open &^= bit
			} else {
				*open |= bit
			}
		} else {
			gpu.ContinueKernel(p, res.Cycles)
		}
		m.trace.Add(trace.Span{GPU: gpuIdx, Stream: stream, Kind: trace.Kernel,
			Page: int64(pid), Level: m.curLevel, Start: t0, End: d.env.Now()})
		m.kernelBusy += gpu.KernelTime(res.Cycles)
		m.edgesTraversed += res.Edges
		m.updates += res.Updates
		m.levelUpdates += res.Updates
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
func (d *driver) copyPageFor(p *sim.Proc, m *member, gpuIdx, stream int, pid slottedpage.PageID, n int64) (pinned bool, err error) {
	if d.inMemory {
		d.hostLookups++
	} else if pinned, err = m.fetchPin(p, pid, gpuIdx, stream); err != nil {
		return false, err
	}
	if err := m.streamCopy(p, d.machine.GPUs[gpuIdx], gpuIdx, stream, pid, n); err != nil {
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
func (d *driver) endWave(p *sim.Proc, m *member) {
	release := func() {
		for i := range m.locals {
			m.putPidSet(m.locals[i])
			m.locals[i] = nil
		}
	}
	if m.abort != nil {
		release()
		return
	}
	lvl := m.waveLevel()
	m.sync(p, lvl)
	// The Superstep container span: one traversal level / iteration
	// including its cross-GPU sync, on the framework track; Dir carries the
	// planned traversal direction (0 for plain kernels). The Wave span
	// beside it names the group wave that carried the superstep.
	now := d.env.Now()
	m.trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Superstep, Page: -1, Level: lvl, Dir: int8(m.curDir), Start: m.stepStart, End: now})
	m.trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Wave, Page: d.stats.Waves, Level: lvl, Start: m.stepStart, End: now})
	if m.abort != nil {
		release()
		return
	}
	if !m.backward {
		m.levelPages = append(m.levelPages, m.pagesStreamed-m.beforePages)
		m.levelBytes = append(m.levelBytes, m.bytesToGPU-m.beforeBytes)
	}

	if m.backward {
		release()
		m.backIdx--
		if m.backIdx < 0 {
			d.finishMember(p, m)
		}
		return
	}
	if m.scan == nil {
		if m.wantBackward {
			m.levelSets = append(m.levelSets, m.next.Clone())
		}
		merged := m.getPidSet()
		for _, l := range m.locals {
			merged.Or(l)
		}
		// Expand LP runs: kernels mark a large vertex's first page.
		g := m.eng.graph
		merged.ForEach(func(pid int) {
			if g.Kind(slottedpage.PageID(pid)) == slottedpage.LargePage {
				kernels.MarkVertexPages(g, g.RVT(slottedpage.PageID(pid)).StartVID, merged, true)
			}
		})
		// A planning kernel rebuilds the next frontier itself — this must
		// run before the emptiness test, because a kernel with pending work
		// of its own (incremental.IncBFS's level buckets) can have some
		// even when no page kernel marked a next page.
		m.planLevel(m.level+1, merged)
		release()
		m.putPidSet(m.next)
		m.next = merged
		m.level++
		if !m.next.Any() {
			if m.wantBackward && len(m.levelSets) > 0 {
				// Backward sweep (Betweenness Centrality): replay the
				// recorded levels in reverse, deepest first.
				m.backKernel.BeginBackward(m.states, m.level-1)
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
	if !m.scan.EndIteration(m.states, active) {
		d.finishMember(p, m)
		return
	}
	// Per-iteration WA sync: the updated vector streams back so the host
	// can feed it as next iteration's RA (Eq. 1's 2|WA|); a resident RA is
	// the device's own copy of it, which the next iteration reads in place.
	m.copyWAOut(p)
}

// finishMember performs the member's final WA copy-back (data
// synchronization, Fig. 2 step 3) and closes its Run span, which covers the
// whole execution on the framework track — the run → superstep → stream
// hierarchy. The member retires from the roster at the wave boundary.
func (d *driver) finishMember(p *sim.Proc, m *member) {
	m.curLevel = -1
	m.copyWAOut(p)
	if m.abort != nil {
		return
	}
	m.trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.Run, Page: -1, Level: -1,
		Start: m.joinedAt, End: d.env.Now()})
	m.done = true
}

// retireFinished removes finished and aborted members from the roster,
// releasing their WA, and settles each one's outcome.
func (d *driver) retireFinished() {
	alive := d.active[:0]
	for _, m := range d.active {
		if !m.done && m.abort == nil {
			alive = append(alive, m)
			continue
		}
		d.freeMemberWA(m)
		d.stats.BytesToGPU += m.bytesToGPU
		d.stats.StorageBytes += m.storageRead
		d.stats.EdgesTraversed += m.edgesTraversed
		if m.abort != nil {
			d.outs[m.idx] = SharedOutcome{Err: m.abort}
		} else {
			d.outs[m.idx] = SharedOutcome{Report: d.memberReport(m)}
		}
	}
	clear(d.active[len(alive):])
	d.active = alive
}

// memberReport assembles a member's Report from its own accumulators (the
// machine's GPU and storage counters aggregate every member).
func (d *driver) memberReport(m *member) Report {
	elapsed := d.env.Now() - m.joinedAt
	cacheRate := 0.0
	if lookups := m.cacheHits + m.pagesStreamed + m.sharedPagesIn; lookups > 0 {
		cacheRate = float64(m.cacheHits) / float64(lookups)
	}
	// Injection counts come from the injector, recovery counts from the
	// member's policy; fstats' injection fields are zero, so Add merges
	// cleanly.
	faults := m.inj.Stats()
	faults.Add(m.fstats)
	return Report{
		Metrics: Metrics{
			Elapsed:        elapsed,
			Levels:         m.level,
			PagesStreamed:  m.pagesStreamed,
			CacheHitRate:   cacheRate,
			BufferHitRate:  m.bufferHitRate(),
			BytesToGPU:     m.bytesToGPU,
			StorageBytes:   m.storageRead,
			TransferTime:   m.transferTime,
			KernelTime:     m.kernelBusy,
			WABytes:        m.states[0].WABytes(),
			MTEPS:          trace.MTEPS(m.edgesTraversed, elapsed),
			LevelPages:     m.levelPages,
			LevelBytes:     m.levelBytes,
			LevelDirs:      m.dirs,
			Faults:         faults,
			HostKernelWall: m.hostKernelWall,
			PoolHits:       m.poolHits,
			PoolLoads:      m.poolLoads,
			PoolWaits:      m.poolWaits,
		},
		State:           m.states[0],
		CacheHits:       m.cacheHits,
		ResidentAtStart: m.residentAtStart,
		EdgesTraversed:  m.edgesTraversed,
		Updates:         m.updates,
	}
}
