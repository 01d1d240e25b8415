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

// gatherFuncs binds one direction (forward or backward) of a kernel's
// gather/apply contract.
type gatherFuncs struct {
	sp    func(*kernels.Args, *kernels.Deferred) kernels.Result
	lp    func(*kernels.Args, *kernels.Deferred) kernels.Result
	apply func(*kernels.Args, *kernels.Deferred, *kernels.Result)
}

// gatherFor resolves the gather/apply entry points for k in the given
// direction; ok is false when the kernel only supports the serial path
// (SSSP, or any future kernel that opts out).
func gatherFor(k kernels.Kernel, backward bool) (gatherFuncs, bool) {
	if backward {
		gb, ok := k.(kernels.GatherBackwardKernel)
		if !ok {
			return gatherFuncs{}, false
		}
		return gatherFuncs{sp: gb.GatherSPBack, lp: gb.GatherLPBack, apply: gb.ApplyBack}, true
	}
	gk, ok := k.(kernels.GatherKernel)
	if !ok {
		return gatherFuncs{}, false
	}
	return gatherFuncs{sp: gk.GatherSP, lp: gk.GatherLP, apply: gk.Apply}, true
}

// kernelArgs assembles the kernels.Args for one (GPU, page) execution.
func (r *run) kernelArgs(gpuIdx int, pid slottedpage.PageID, level int32, local pidSet) kernels.Args {
	g := r.eng.graph
	return kernels.Args{
		Graph:    g,
		PID:      pid,
		Page:     g.Page(pid),
		State:    r.stateFor(gpuIdx),
		Level:    level,
		OwnedLo:  r.owned[gpuIdx][0],
		OwnedHi:  r.owned[gpuIdx][1],
		Tech:     r.eng.opts.Technique,
		NextPIDs: local,
		Scratch:  &r.adjScratch,
	}
}

// computeKernels runs the phase's (GPU, page) jobs and appends their
// results to r.kres in job order (the caller truncates r.kres when a new
// phase or wave begins). With a gatherable kernel and at least
// minGatherWorkers workers it proceeds in waves: each wave's pages gather
// concurrently (work-stealing off an atomic cursor) against the state left
// by all previously applied pages, then the wave's deferred writes are
// applied serially in job order. Otherwise the kernels run inline. Both
// paths accrue the real wall-clock spent into r.hostKernelWall.
func (r *run) computeKernels(jobs []pageKey, level int32, locals []pidSet, backward bool) {
	t0 := time.Now()

	// Decide the inline path before resolving gather entry points: binding
	// method values allocates, and the inline hot path must not.
	// (gatherPhase is a separate method for the same reason — its goroutine
	// closure captures locals that would otherwise be heap-allocated even on
	// inline calls.)
	if r.workers >= minGatherWorkers && len(jobs) >= 2 {
		if gf, ok := gatherFor(r.k, backward); ok {
			r.gatherPhase(jobs, level, locals, gf)
			r.hostKernelWall += time.Since(t0)
			return
		}
	}
	for _, job := range jobs {
		r.kres = append(r.kres, r.runKernel(job.gpu, job.pid, level, locals[job.gpu], backward))
	}
	r.hostKernelWall += time.Since(t0)
}

// gatherPhase is computeKernels' parallel body: wave-sized batches gather
// concurrently, then apply serially in job order.
func (r *run) gatherPhase(jobs []pageKey, level int32, locals []pidSet, gf gatherFuncs) {
	g := r.eng.graph
	wave := r.workers * waveFactor
	for start := 0; start < len(jobs); start += wave {
		end := start + wave
		if end > len(jobs) {
			end = len(jobs)
		}
		batch := jobs[start:end]

		if cap(r.gatherRes) < len(batch) {
			r.gatherRes = make([]kernels.Result, len(batch))
			r.gatherDefs = make([]*kernels.Deferred, len(batch))
		}
		res := r.gatherRes[:len(batch)]
		defs := r.gatherDefs[:len(batch)]
		for i := range defs {
			d := deferredPool.Get().(*kernels.Deferred)
			d.Reset()
			defs[i] = d
		}

		workers := r.workers
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
					args = r.kernelArgs(job.gpu, job.pid, level, locals[job.gpu])
					if g.Kind(job.pid) == slottedpage.LargePage {
						res[i] = gf.lp(&args, defs[i])
					} else {
						res[i] = gf.sp(&args, defs[i])
					}
				}
			}()
		}
		wg.Wait()

		// Deterministic merge: commit each page's deferred writes in job
		// order — exactly the order the serial loop mutates state in.
		for i, job := range batch {
			r.argScratch = r.kernelArgs(job.gpu, job.pid, level, locals[job.gpu])
			kr := res[i]
			gf.apply(&r.argScratch, defs[i], &kr)
			r.kres = append(r.kres, kr)
			defs[i].Reset()
			deferredPool.Put(defs[i])
			defs[i] = nil
		}
	}
}

// getPidSet takes a cleared page-ID bitset from the run's pool.
func (r *run) getPidSet() pidSet {
	s := r.pidPool.Get().(pidSet)
	s.Reset()
	return s
}

// putPidSet returns a bitset to the pool. nil is ignored.
func (r *run) putPidSet(s pidSet) {
	if s != nil {
		r.pidPool.Put(s)
	}
}
