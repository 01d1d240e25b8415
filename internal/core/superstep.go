package core

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// streamProcNames holds the names of the per-(GPU, stream) processes every
// wave starts. A name only ever surfaces in a panic message, so the common
// ones are built once rather than formatted on every wave.
var streamProcNames [8][32]string

func init() {
	for i := range streamProcNames {
		for s := range streamProcNames[i] {
			streamProcNames[i][s] = fmt.Sprintf("gpu%d/stream%d", i, s)
		}
	}
}

func streamProcName(gpu, stream int) string {
	if gpu < len(streamProcNames) && stream < len(streamProcNames[gpu]) {
		return streamProcNames[gpu][stream]
	}
	return fmt.Sprintf("gpu%d/stream%d", gpu, stream)
}

// streamCopy moves n bytes to the GPU in streaming mode with bounded
// retry, recording trace and transfer accounting.
func (r *run) streamCopy(p *sim.Proc, gpu *hw.GPU, gpuIdx, stream int, pid slottedpage.PageID, n int64) error {
	t0 := r.env.Now()
	err := r.withRetry(p, gpuIdx, stream, "stream copy", func() error {
		return gpu.CopyStreamIn(p, n)
	})
	if err != nil {
		// Name the page here: this runs once per streamed page, and only a
		// failure needs the name.
		return fmt.Errorf("page %d: %w", pid, err)
	}
	r.trace.Add(trace.Span{GPU: gpuIdx, Stream: stream, Kind: trace.CopyPage, Page: int64(pid), Level: r.curLevel, Start: t0, End: r.env.Now()})
	r.rep.BytesToGPU += n
	r.rep.TransferTime += r.eng.spec.PCIe.Latency + sim.ByteTime(n, r.eng.spec.PCIe.StreamRate)
	return nil
}

// fetchPin ensures pid is resident in the host page buffer, reading it from
// the storage array on a miss (Algorithm 1 lines 18-26). pinned reports a
// pool pin the caller must Unpin once the page's streaming copy is done.
//
// Pin never blocks the simulation: same-env duplicate loads (sibling
// streams, every GPU under Strategy-S) coalesce on the run's inflight table before the pool is consulted, and a waiter re-pins
// after the reader finishes — if the read failed it takes over with its own
// retry budget. A frame busy in a different env (another System loading the
// same page) or a pool with every frame pinned (a private pool of fewer
// frames than streams) yields a bypass read — the page streams from a
// transient host buffer without entering the pool. A real cross-env wait
// could deadlock two cooperative schedulers loading each other's pages, so
// the pool's API never offers one.
func (r *run) fetchPin(p *sim.Proc, pid slottedpage.PageID, gpuIdx, stream int) (pinned bool, err error) {
	for {
		if sig, ok := r.inflight[pid]; ok {
			sig.Wait(p)
			continue
		}
		switch r.pool.Pin(uint64(pid)) {
		case bufpool.Hit:
			r.rep.PoolHits++
			r.traceMark(trace.PoolHit, gpuIdx, stream, int64(pid))
			return true, nil
		case bufpool.Load:
			sig := new(sim.Signal)
			r.inflight[pid] = sig
			err := r.readPage(p, pid, gpuIdx, stream)
			delete(r.inflight, pid)
			sig.Fire()
			if err != nil {
				r.pool.Abort(uint64(pid))
				return false, err
			}
			r.pool.Ready(uint64(pid))
			r.rep.PoolLoads++
			r.traceMark(trace.PoolLoad, gpuIdx, stream, int64(pid))
			return true, nil
		default: // Busy in another env, or no evictable frame: bypass.
			r.rep.PoolWaits++
			r.traceMark(trace.PoolWait, gpuIdx, stream, int64(pid))
			return false, r.readPage(p, pid, gpuIdx, stream)
		}
	}
}

// copyWAOut synchronizes attribute data back to the host: under Strategy-P
// the replicas were already peer-merged into the master GPU, so only it
// copies the full WA out (Fig. 5 step 4); under Strategy-S every GPU ships
// its disjoint chunk concurrently. Persistent transfer failure aborts the
// run via r.fail.
func (r *run) copyWAOut(p *sim.Proc) {
	n := len(r.machine.GPUs)
	if r.eng.opts.Strategy == StrategyP {
		n = 1
	}
	r.parallelGPUs(p, n, func(p *sim.Proc, i int) {
		t0 := r.env.Now()
		err := r.withRetry(p, i, -1, "WA copy-out", func() error {
			return r.machine.GPUs[i].CopyOut(p, r.perGPUWA)
		})
		if err != nil {
			r.fail(err)
			return
		}
		r.trace.Add(trace.Span{GPU: i, Stream: -1, Kind: trace.Sync, Page: -1, Level: r.curLevel, Start: t0, End: r.env.Now()})
	})
}

// sync performs the end-of-superstep attribute synchronization across GPUs
// (Fig. 5 steps 3-4). With one GPU there is nothing to merge; full-scan
// iteration sync to the host is handled by endWave.
func (r *run) sync(p *sim.Proc, w *wave) {
	nGPU := len(r.machine.GPUs)
	if nGPU < 2 {
		return
	}
	switch r.eng.opts.Strategy {
	case StrategyP:
		// Peer-to-peer merge into the master GPU (the functional half
		// merged the replicas when it computed the wave). Full-scan
		// algorithms move the whole WA; traversal algorithms move only the
		// entries they touched, which is why the paper's Eq. 2 has no sync
		// term.
		bytes := r.perGPUWA
		if r.pl.scan == nil {
			bytes = w.updates * r.updateBytes
		}
		for i := 1; i < nGPU; i++ {
			t0 := r.env.Now()
			err := r.withRetry(p, i, -1, "peer WA merge", func() error {
				return r.machine.GPUs[i].CopyPeer(p, r.machine.GPUs[0], bytes)
			})
			if err != nil {
				r.fail(err)
				return
			}
			r.trace.Add(trace.Span{GPU: i, Stream: -1, Kind: trace.Sync, Page: -1, Level: w.level, Start: t0, End: r.env.Now()})
		}
	case StrategyS:
		// WA chunks are disjoint; each GPU ships its local nextPIDSet (a
		// page-count bit vector) back to the host for the global merge, as
		// §4.2 prices it. The engine holds no such set: the kernel's plan
		// of the next level stands for the merged one.
		if r.pl.scan == nil {
			small := int64(r.eng.graph.NumPages()/8 + 1)
			r.parallelGPUs(p, nGPU, func(p *sim.Proc, i int) {
				err := r.withRetry(p, i, -1, "nextPIDSet copy-out", func() error {
					return r.machine.GPUs[i].CopyOut(p, small)
				})
				if err != nil {
					r.fail(err)
				}
			})
		}
	}
}
