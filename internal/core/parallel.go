package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// This file implements the host-parallel side of the tentpole: the
// functional kernel work phase() precomputes is fanned out to a pool of
// HostWorkers goroutines using the kernels' gather/apply contract
// (internal/kernels/deferred.go), with deferred writes applied in the same
// deterministic (GPU, page) order the serial path uses. The simulation
// itself stays single-threaded — the pool runs between sim events, so
// virtual time, traces, and fault schedules are untouched by parallelism.

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

// computeKernels runs the phase's (GPU, page) jobs and memoizes their
// results into r.kres. With a gatherable kernel and >1 worker it proceeds
// in waves: each wave's pages gather concurrently (work-stealing off an
// atomic cursor) against the state left by all previously applied pages,
// then the wave's deferred writes are applied serially in job order.
// Otherwise it falls back to the serial loop. Both paths accrue the real
// wall-clock spent into r.hostKernelWall.
func (r *run) computeKernels(jobs []pageKey, level int32, locals []pidSet, backward bool) {
	t0 := time.Now()

	// Decide the serial fallback before resolving gather entry points:
	// binding method values allocates, and the serial hot path must not.
	// (gatherPhase is a separate method for the same reason — its goroutine
	// closure captures locals that would otherwise be heap-allocated even on
	// serial calls.)
	if r.workers >= 2 && len(jobs) >= 2 {
		if gf, ok := gatherFor(r.k, backward); ok {
			r.gatherPhase(jobs, level, locals, gf)
			r.hostKernelWall += time.Since(t0)
			return
		}
	}
	for _, job := range jobs {
		r.kres[job] = r.runKernel(job.gpu, job.pid, level, locals[job.gpu], backward)
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
			r.kres[job] = kr
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
