package core

import (
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// Recovery policy for injected (or modeled) hardware faults: bounded retry
// with exponential virtual-time backoff. Kernels run functionally before
// their simulated launch and faults only perturb the hardware model, so
// every recovery path yields results byte-identical to a fault-free run —
// faults cost time and counters, never correctness.
const (
	// maxAttempts bounds tries per operation (1 initial + 4 retries).
	maxAttempts = 5
	// retryBackoff is the first retry delay; it doubles per attempt.
	retryBackoff = 100 * sim.Microsecond
)

// fail latches the member's first unrecoverable error. The streams skip an
// aborted member's demands and the group retires it at the wave boundary
// with the error as its outcome.
func (m *member) fail(err error) {
	if m.abort == nil {
		m.abort = err
	}
}

// traceMark records a zero-duration marker span (fault/retry instants).
func (m *member) traceMark(kind trace.Kind, gpu, stream int, page int64) {
	now := m.env.Now()
	m.trace.Add(trace.Span{GPU: gpu, Stream: stream, Kind: kind, Page: page, Level: m.curLevel, Start: now, End: now})
}

// retry is the one recovery loop: it runs attempt until it succeeds or the
// attempt budget is exhausted, marking each failure and each granted retry
// on the trace at page and backing off exponentially in virtual time in
// between, and returns the attempts made and the last one's error. onErr,
// when non-nil, sees every error that will be retried; true means it has
// removed the cause, so the next attempt starts at once.
//
// Each attempt first arms the machine's fault injectors with this member's.
// The sim scheduler runs one process at a time and the hw models read their
// injector synchronously at call entry, so arming here cannot race a sibling
// member's operation.
func (m *member) retry(p *sim.Proc, gpu, stream int, page int64, attempt func() error, onErr func(error) bool) (int, error) {
	backoff := retryBackoff
	for n := 1; ; n++ {
		m.machine.InjectFaults(m.inj)
		err := attempt()
		if err == nil {
			if n > 1 {
				m.fstats.Recoveries++
			}
			return n, nil
		}
		m.traceMark(trace.Fault, gpu, stream, page)
		if n >= maxAttempts {
			return n, err
		}
		m.fstats.Retries++
		m.traceMark(trace.Retry, gpu, stream, page)
		if onErr != nil && onErr(err) {
			continue
		}
		p.Delay(backoff)
		backoff *= 2
	}
}

// withRetry runs a transfer under the recovery loop. Exhaustion wraps the
// last error in ErrHardwareFault.
func (m *member) withRetry(p *sim.Proc, gpu, stream int, what string, fn func() error) error {
	if n, err := m.retry(p, gpu, stream, -1, fn, nil); err != nil {
		return fmt.Errorf("%w: %s failed %d times: %v", ErrHardwareFault, what, n, err)
	}
	return nil
}

// launchKernel launches one kernel with recovery. A device-OOM failure
// degrades gracefully by shrinking the GPU's page cache budget in half
// (freeing the difference for the launch) rather than abandoning caching:
// the cache keeps serving its older half while the transient memory
// pressure lasts, and once a retry succeeds the budget re-grows toward
// its configured target — the run gets slower, not wrong, and caching
// survives the fault. Only when the cache is already at its one-page
// floor is it dropped entirely. Other failures retry with backoff.
func (m *member) launchKernel(p *sim.Proc, gpuIdx, stream int, pid slottedpage.PageID, cycles float64) error {
	gpu := m.machine.GPUs[gpuIdx]
	n, err := m.retry(p, gpuIdx, stream, int64(pid),
		func() error { return gpu.LaunchKernel(p, cycles) },
		func(err error) bool {
			if !errors.Is(err, hw.ErrOutOfDeviceMemory) || m.caches[gpuIdx] == nil {
				return false
			}
			m.shrinkCache(gpuIdx)
			m.fstats.Degradations++
			return true // relaunch immediately with the freed memory
		})
	if err != nil {
		return fmt.Errorf("%w: kernel launch for page %d on GPU%d failed %d times: %v",
			ErrHardwareFault, pid, gpuIdx, n, err)
	}
	if n > 1 {
		m.regrowCache(gpuIdx)
	}
	return nil
}

// shrinkCache halves GPU gpuIdx's page-cache byte budget, dropping the most
// recently admitted pages beyond the new capacity and freeing the device
// memory for the failed launch. A cache already at one page is dropped entirely.
func (m *member) shrinkCache(gpuIdx int) {
	gpu := m.machine.GPUs[gpuIdx]
	pageSize := int64(m.eng.graph.Config().PageSize)
	cur := m.cacheBytes[gpuIdx]
	newPages := cur / 2 / pageSize
	if newPages < 1 {
		gpu.Free(cur)
		m.caches[gpuIdx] = nil
		m.cacheBytes[gpuIdx] = 0
		return
	}
	m.caches[gpuIdx].Resize(int(newPages))
	gpu.Free(cur - newPages*pageSize)
	m.cacheBytes[gpuIdx] = newPages * pageSize
}

// regrowCache re-allocates device memory toward the cache's configured
// target after a successful retry: the transient pressure that caused the
// OOM has passed, so the budget an earlier shrinkCache surrendered comes
// back (as far as free device memory allows). Evicted pages are not
// restored — they re-enter through normal streaming.
func (m *member) regrowCache(gpuIdx int) {
	if m.caches[gpuIdx] == nil {
		return
	}
	target := m.cacheTarget[gpuIdx]
	cur := m.cacheBytes[gpuIdx]
	if cur >= target {
		return
	}
	gpu := m.machine.GPUs[gpuIdx]
	pageSize := int64(m.eng.graph.Config().PageSize)
	want := target - cur
	if free := gpu.MemFree(); want > free {
		want = free
	}
	pages := want / pageSize
	if pages < 1 {
		return
	}
	if gpu.Alloc(pages*pageSize) != nil {
		return
	}
	m.cacheBytes[gpuIdx] = cur + pages*pageSize
	m.caches[gpuIdx].Resize(int(m.cacheBytes[gpuIdx] / pageSize))
}

// readPage reads pid from the storage array with recovery: failed reads
// retry with backoff, and pages that arrive corrupt are caught by the
// per-page CRC (slottedpage.VerifyPageBytes) and re-read. The caller
// readies the page's pool frame on success. Every page the devices serve —
// a corrupt one that is then re-read included — counts toward the member's
// Report.StorageBytes.
func (m *member) readPage(p *sim.Proc, pid slottedpage.PageID, gpuIdx, stream int) error {
	g := m.eng.graph
	n, err := m.retry(p, gpuIdx, stream, int64(pid), func() error {
		t0 := m.env.Now()
		corrupt, err := m.machine.Storage.ReadPage(p, uint64(pid))
		m.trace.Add(trace.Span{GPU: gpuIdx, Stream: stream, Kind: trace.StorageIO,
			Page: int64(pid), Level: m.curLevel, Start: t0, End: m.env.Now()})
		if err != nil {
			return err
		}
		m.storageRead += int64(g.Config().PageSize)
		if !corrupt {
			return nil
		}
		// The injector damaged the bytes in flight. Run the real
		// verification machinery against a corrupted copy of the page so
		// detection exercises the same checksum path a production read
		// would.
		buf := append([]byte(nil), g.PageBytes(pid)...)
		buf[int(uint64(pid))%len(buf)] ^= 0xA5
		return g.VerifyPageBytes(pid, buf)
	}, nil)
	if err != nil {
		return fmt.Errorf("%w: reading page %d failed %d times: %v", ErrHardwareFault, pid, n, err)
	}
	return nil
}
