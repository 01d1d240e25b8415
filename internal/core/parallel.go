package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// This file is the host side of a wave's functional kernel work, which
// beginWave precomputes before the streams start. Below minGatherWorkers the
// kernels run inline, page by page; at or above it the work fans out to a
// pool of HostWorkers goroutines through the kernels' gather/apply contract
// (internal/kernels/deferred.go), with deferred writes applied in the same
// deterministic (GPU, page) order the inline loop mutates state in. The
// simulation itself stays single-threaded — the pool runs between sim
// events, so virtual time, traces, and fault schedules are untouched by
// parallelism, and results are byte-identical on either path.

// minGatherWorkers is the gather/apply path's break-even: the smallest
// HostWorkers at which fanning a phase out beats running its kernels
// inline. Gathering defers every write into per-page buffers and replays
// them serially afterwards, so it does more total work than the inline
// kernel and only pays once enough cores split the gather half. Per
// 1 M-edge PageRank phase at the benchmark's size (RMAT27@11;
// BenchmarkSuperstepWorkers is the sweep) the inline kernel takes
// 4.6–5.8 ms. The gather is 5.9 ms of CPU and the serial apply 1.5 ms on
// one warm core, 6.7 and 2.3 ms inside the pool where the deferred buffers
// cross cores: 9.0–9.2 ms when the workers share one core (what a 2-vCPU
// box gives them about half the time), ≈ 5.7 ms on two real cores, ≈ 4.0 ms
// on four. Two or three workers lose or tie; four — four cores, when the
// count is the GOMAXPROCS default — is the first that wins outright.
const minGatherWorkers = 4

// waveFactor sizes gather waves as workers*waveFactor pages: large enough
// to amortize the barrier, small enough to bound deferred-buffer memory
// and keep Apply's cache footprint warm.
const waveFactor = 8

// deferredPool recycles per-page deferred-write buffers across waves and
// runs so steady-state gathers allocate nothing.
var deferredPool = sync.Pool{New: func() any { return new(kernels.Deferred) }}

// kernelArgs assembles the kernels.Args for one (GPU, page) execution.
func (m *member) kernelArgs(gpuIdx int, pid slottedpage.PageID, level int32, local pidSet) kernels.Args {
	g := m.eng.graph
	return kernels.Args{
		Graph:    g,
		PID:      pid,
		Page:     g.Page(pid),
		State:    m.stateFor(gpuIdx),
		Level:    level,
		OwnedLo:  m.owned[gpuIdx][0],
		OwnedHi:  m.owned[gpuIdx][1],
		Tech:     m.eng.opts.Technique,
		NextPIDs: local,
	}
}

// canGather reports whether k's page kernels honour Args.Deferred in the
// given direction; false means the kernel only supports the serial path
// (SSSP, or any future kernel that opts out).
func canGather(k kernels.Kernel, backward bool) bool {
	if backward {
		_, ok := k.(kernels.GatherBackwardKernel)
		return ok
	}
	_, ok := k.(kernels.GatherKernel)
	return ok
}

// computeKernels runs the phase's (GPU, page) jobs and appends their
// results to m.kres in job order (the caller truncates m.kres when a new
// phase or wave begins). With a gatherable kernel and at least
// minGatherWorkers workers it proceeds in waves: each wave's pages gather
// concurrently (work-stealing off an atomic cursor) against the state left
// by all previously applied pages, then the wave's deferred writes are
// applied serially in job order. Otherwise the kernels run inline. Both
// paths accrue the real wall-clock spent into m.hostKernelWall.
func (m *member) computeKernels(jobs []pageKey, level int32, locals []pidSet, backward bool) {
	t0 := time.Now()
	// gatherPhase is a separate method because its goroutine closure captures
	// locals that would otherwise be heap-allocated even on inline calls, and
	// the inline hot path must not allocate.
	if m.workers >= minGatherWorkers && len(jobs) >= 2 && canGather(m.k, backward) {
		m.gatherPhase(jobs, level, locals, backward)
	} else {
		for _, job := range jobs {
			// argScratch lives on the (already heap-allocated) member so the
			// serial hot loop performs zero allocations per page.
			m.argScratch = m.kernelArgs(job.gpu, job.pid, level, locals[job.gpu])
			m.kres = append(m.kres, runKernel(m.k, &m.argScratch, backward))
		}
	}
	m.hostKernelWall += time.Since(t0)
}

// gatherPhase is computeKernels' parallel body: wave-sized batches gather
// concurrently, then apply serially in job order.
func (m *member) gatherPhase(jobs []pageKey, level int32, locals []pidSet, backward bool) {
	var apply func(*kernels.Args, *kernels.Deferred, *kernels.Result)
	if backward {
		apply = m.k.(kernels.GatherBackwardKernel).ApplyBack
	} else {
		apply = m.k.(kernels.GatherKernel).Apply
	}
	wave := m.workers * waveFactor
	for start := 0; start < len(jobs); start += wave {
		end := start + wave
		if end > len(jobs) {
			end = len(jobs)
		}
		batch := jobs[start:end]

		if cap(m.gatherRes) < len(batch) {
			m.gatherRes = make([]kernels.Result, len(batch))
			m.gatherDefs = make([]*kernels.Deferred, len(batch))
		}
		res := m.gatherRes[:len(batch)]
		defs := m.gatherDefs[:len(batch)]
		for i := range defs {
			d := deferredPool.Get().(*kernels.Deferred)
			d.Reset()
			defs[i] = d
		}

		workers := m.workers
		if workers > len(batch) {
			workers = len(batch)
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				// One Args per goroutine, not per page: &args escapes into
				// the interface call, so hoisting it caps the gather path at
				// one allocation per worker per wave.
				var args kernels.Args
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(batch) {
						return
					}
					job := batch[i]
					args = m.kernelArgs(job.gpu, job.pid, level, locals[job.gpu])
					args.Deferred = defs[i]
					res[i] = runKernel(m.k, &args, backward)
				}
			}()
		}
		wg.Wait()

		// Deterministic merge: commit each page's deferred writes in job
		// order — exactly the order the serial loop mutates state in.
		for i, job := range batch {
			m.argScratch = m.kernelArgs(job.gpu, job.pid, level, locals[job.gpu])
			kr := res[i]
			apply(&m.argScratch, defs[i], &kr)
			m.kres = append(m.kres, kr)
			defs[i].Reset()
			deferredPool.Put(defs[i])
			defs[i] = nil
		}
	}
}

// getPidSet takes a cleared page-ID bitset from the run's pool.
func (m *member) getPidSet() pidSet {
	s := m.pidPool.Get().(pidSet)
	s.Reset()
	return s
}

// putPidSet returns a bitset to the pool. nil is ignored.
func (m *member) putPidSet(s pidSet) {
	if s != nil {
		m.pidPool.Put(s)
	}
}
