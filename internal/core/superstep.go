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
func (m *member) streamCopy(p *sim.Proc, gpu *hw.GPU, gpuIdx, stream int, pid slottedpage.PageID, n int64) error {
	t0 := m.env.Now()
	err := m.withRetry(p, gpuIdx, stream, "stream copy", func() error {
		return gpu.CopyStreamIn(p, n)
	})
	if err != nil {
		// Name the page here: this runs once per streamed page, and only a
		// failure needs the name.
		return fmt.Errorf("page %d: %w", pid, err)
	}
	m.eng.opts.Trace.Add(trace.Span{GPU: gpuIdx, Stream: stream, Kind: trace.CopyPage, Page: int64(pid), Level: m.curLevel, Start: t0, End: m.env.Now()})
	m.bytesToGPU += n
	m.transferTime += m.eng.spec.PCIe.Latency + sim.ByteTime(n, m.eng.spec.PCIe.StreamRate)
	return nil
}

// fetchPin ensures pid is resident in the host page buffer, reading it from
// the storage array on a miss (Algorithm 1 lines 18-26). pinned reports a
// pool pin the caller must Unpin once the page's streaming copy is done.
//
// Pin never blocks the simulation: same-env duplicate loads (sibling
// streams, wave-group members, every GPU under Strategy-S) coalesce on the
// plant's inflight table before the pool is consulted, and a waiter re-pins
// after the reader finishes — if the read failed it takes over with its own
// retry budget. A frame busy in a different env (another System loading the
// same page) or a pool with every frame pinned (a private pool of fewer
// frames than streams) yields a bypass read — the page streams from a
// transient host buffer without entering the pool. A real cross-env wait
// could deadlock two cooperative schedulers loading each other's pages, so
// the pool's API never offers one.
func (m *member) fetchPin(p *sim.Proc, pid slottedpage.PageID, gpuIdx, stream int) (pinned bool, err error) {
	for {
		if sig, ok := m.inflight[pid]; ok {
			sig.Wait(p)
			continue
		}
		switch m.pool.Pin(uint64(pid)) {
		case bufpool.Hit:
			m.poolHits++
			m.traceMark(trace.PoolHit, gpuIdx, stream, int64(pid))
			return true, nil
		case bufpool.Load:
			sig := sim.NewSignal(m.env)
			m.inflight[pid] = sig
			err := m.readPage(p, pid, gpuIdx, stream)
			delete(m.inflight, pid)
			sig.Fire()
			if err != nil {
				m.pool.Abort(uint64(pid))
				return false, err
			}
			m.pool.Ready(uint64(pid))
			m.poolLoads++
			m.traceMark(trace.PoolLoad, gpuIdx, stream, int64(pid))
			return true, nil
		default: // Busy in another env, or no evictable frame: bypass.
			m.poolWaits++
			m.traceMark(trace.PoolWait, gpuIdx, stream, int64(pid))
			return false, m.readPage(p, pid, gpuIdx, stream)
		}
	}
}

// copyWAOut synchronizes attribute data back to the host: under Strategy-P
// the replicas were already peer-merged into the master GPU, so only it
// copies the full WA out (Fig. 5 step 4); under Strategy-S every GPU ships
// its disjoint chunk concurrently. Persistent transfer failure aborts the
// run via m.fail.
func (m *member) copyWAOut(p *sim.Proc) {
	if m.eng.opts.Strategy == StrategyP {
		t0 := m.env.Now()
		err := m.withRetry(p, 0, -1, "WA copy-out", func() error {
			return m.machine.GPUs[0].CopyOut(p, m.perGPUWA)
		})
		if err != nil {
			m.fail(err)
			return
		}
		m.eng.opts.Trace.Add(trace.Span{GPU: 0, Stream: -1, Kind: trace.Sync, Page: -1, Level: m.curLevel, Start: t0, End: m.env.Now()})
		return
	}
	m.parallelGPUs(p, func(p *sim.Proc, i int) {
		t0 := m.env.Now()
		err := m.withRetry(p, i, -1, "WA copy-out", func() error {
			return m.machine.GPUs[i].CopyOut(p, m.perGPUWA)
		})
		if err != nil {
			m.fail(err)
			return
		}
		m.eng.opts.Trace.Add(trace.Span{GPU: i, Stream: -1, Kind: trace.Sync, Page: -1, Level: m.curLevel, Start: t0, End: m.env.Now()})
	})
}

// sync performs the end-of-superstep attribute synchronization across GPUs
// (Fig. 5 steps 3-4). With one GPU there is nothing to merge; full-scan
// iteration sync to the host is handled by endWave.
func (m *member) sync(p *sim.Proc, level int32) {
	nGPU := len(m.machine.GPUs)
	if nGPU < 2 {
		return
	}
	switch m.eng.opts.Strategy {
	case StrategyP:
		// Peer-to-peer merge into the master GPU. Full-scan algorithms
		// move the whole WA; traversal algorithms move only the entries
		// they touched, which is why the paper's Eq. 2 has no sync term.
		bytes := m.perGPUWA
		if m.scan == nil {
			bytes = m.levelUpdates * m.waPerVertex
		}
		for i := 1; i < nGPU; i++ {
			t0 := m.env.Now()
			err := m.withRetry(p, i, -1, "peer WA merge", func() error {
				return m.machine.GPUs[i].CopyPeer(p, m.machine.GPUs[0], bytes)
			})
			if err != nil {
				m.fail(err)
				return
			}
			m.eng.opts.Trace.Add(trace.Span{GPU: i, Stream: -1, Kind: trace.Sync, Page: -1, Level: level, Start: t0, End: m.env.Now()})
		}
		m.k.MergeStates(m.states)
	case StrategyS:
		// WA chunks are disjoint; each GPU ships its local nextPIDSet (a
		// page-count bit vector) back to the host for the global merge.
		if m.scan == nil {
			small := int64(m.eng.graph.NumPages()/8 + 1)
			m.parallelGPUs(p, func(p *sim.Proc, i int) {
				err := m.withRetry(p, i, -1, "nextPIDSet copy-out", func() error {
					return m.machine.GPUs[i].CopyOut(p, small)
				})
				if err != nil {
					m.fail(err)
				}
			})
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
