package hw

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// ErrOutOfDeviceMemory reports that a GPU allocation exceeded device DRAM —
// the capacity wall that motivates GTS (paper §1) and that sinks CuSha and
// MapGraph on larger graphs (paper §7.4).
var ErrOutOfDeviceMemory = errors.New("hw: out of GPU device memory")

// GPU is the runtime model of one GPU bound to a simulation environment.
//
// Transfers: each GPU has one host-to-device DMA engine and one
// device-to-host engine; transfers on an engine serialize against each other
// but overlap with kernel execution and with the other engine (paper §3.2,
// Fig. 3). Kernels: up to ConcurrentKernels submissions queue in hardware;
// KernelConcurrency of them execute at once, each at an equal share of the
// aggregate SM throughput.
type GPU struct {
	Spec  GPUSpec
	Index int

	env     *sim.Env
	pcie    PCIeSpec
	h2d     *sim.Resource // host-to-device DMA engine
	d2h     *sim.Resource // device-to-host DMA engine
	smPool  *sim.Resource // kernel execution
	kernels *sim.Resource // concurrent-kernel slots (CUDA limit: 32)
	inj     *fault.Injector

	memUsed     int64
	kernelCalls int64
	kernelTime  sim.Time
	h2dBytes    int64
	d2hBytes    int64
}

// NewGPU binds a GPU spec to env with the given PCI-E link.
func NewGPU(env *sim.Env, spec GPUSpec, pcie PCIeSpec, index int) *GPU {
	return &GPU{
		Spec:    spec,
		Index:   index,
		env:     env,
		pcie:    pcie,
		h2d:     sim.NewResource(env, 1),
		d2h:     sim.NewResource(env, 1),
		smPool:  sim.NewResource(env, spec.KernelConcurrency),
		kernels: sim.NewResource(env, spec.ConcurrentKernels),
	}
}

// Alloc reserves n bytes of device memory.
func (g *GPU) Alloc(n int64) error {
	if g.memUsed+n > g.Spec.DeviceMemory {
		return fmt.Errorf("%w: need %d, %d free on GPU%d",
			ErrOutOfDeviceMemory, n, g.Spec.DeviceMemory-g.memUsed, g.Index)
	}
	g.memUsed += n
	return nil
}

// Free releases n bytes of device memory.
func (g *GPU) Free(n int64) {
	g.memUsed -= n
	if g.memUsed < 0 {
		panic("hw: GPU.Free released more than allocated")
	}
}

// MemUsed reports allocated device memory.
func (g *GPU) MemUsed() int64 { return g.memUsed }

// MemFree reports unallocated device memory — what GTS turns into page
// cache (paper §3.3).
func (g *GPU) MemFree() int64 { return g.Spec.DeviceMemory - g.memUsed }

// InjectFaults arms the GPU's copy engines and kernel launcher with a
// fault injector. A nil injector restores fault-free behaviour.
func (g *GPU) InjectFaults(inj *fault.Injector) { g.inj = inj }

// transfer runs one DMA operation on engine: acquire, pay link latency plus
// the byte time, release. An injected stall lengthens the busy window; an
// injected error burns the full bus time (the transfer ran, then the
// completion was reported bad — as a real DMA engine with ECC would) and
// the bytes are not counted as delivered.
func (g *GPU) transfer(p *sim.Proc, engine *sim.Resource, t sim.Time, delivered *int64, n int64) error {
	stall, err := g.inj.Transfer()
	engine.Acquire(p)
	p.Delay(t + stall)
	engine.Release()
	if err != nil {
		return fmt.Errorf("%w (GPU%d)", err, g.Index)
	}
	if delivered != nil {
		*delivered += n
	}
	return nil
}

// CopyChunkIn moves n bytes host-to-device at the chunk rate c1 (pinned
// bulk copies such as WA upload).
func (g *GPU) CopyChunkIn(p *sim.Proc, n int64) error {
	return g.transfer(p, g.h2d, g.pcie.Latency+sim.ByteTime(n, g.pcie.ChunkRate), &g.h2dBytes, n)
}

// CopyStreamIn moves n bytes host-to-device at the streaming rate c2
// (per-page topology/RA copies issued by GPU streams).
func (g *GPU) CopyStreamIn(p *sim.Proc, n int64) error {
	return g.transfer(p, g.h2d, g.pcie.Latency+sim.ByteTime(n, g.pcie.StreamRate), &g.h2dBytes, n)
}

// CopyOut moves n bytes device-to-host at the chunk rate (WA
// synchronization back to main memory).
func (g *GPU) CopyOut(p *sim.Proc, n int64) error {
	return g.transfer(p, g.d2h, g.pcie.Latency+sim.ByteTime(n, g.pcie.ChunkRate), &g.d2hBytes, n)
}

// CopyPeer moves n bytes from g to dst over the peer-to-peer path
// (Strategy-P's WA merge, paper §4.1). It holds both devices' DMA engines.
func (g *GPU) CopyPeer(p *sim.Proc, dst *GPU, n int64) error {
	stall, err := g.inj.Transfer()
	g.d2h.Acquire(p)
	dst.h2d.Acquire(p)
	p.Delay(g.pcie.Latency + sim.ByteTime(n, g.pcie.P2PRate) + stall)
	dst.h2d.Release()
	g.d2h.Release()
	if err != nil {
		return fmt.Errorf("%w (GPU%d→GPU%d peer)", err, g.Index, dst.Index)
	}
	return nil
}

// KernelTime reports how long one kernel with the given cycle count runs:
// a single kernel gets 1/KernelConcurrency of the SM throughput, so the
// aggregate rate is reached only when the pool is full.
func (g *GPU) KernelTime(cycles float64) sim.Time {
	t := sim.Seconds(cycles * float64(g.Spec.KernelConcurrency) / g.Spec.CyclesPerSec)
	if g.Throttled() {
		t = sim.Time(float64(t) / g.Spec.ThermalFactor)
	}
	return t
}

// Throttled reports whether cumulative kernel activity has crossed the
// thermal limit and the GPU is running down-clocked.
func (g *GPU) Throttled() bool {
	return g.Spec.ThermalLimit > 0 && g.Spec.ThermalFactor > 0 &&
		g.Spec.ThermalFactor < 1 && g.kernelTime > g.Spec.ThermalLimit
}

// LaunchKernel submits a kernel of the given cycle count from stream
// context p and blocks until it completes. The launch overhead is paid
// before entering the SM queue, so concurrent streams overlap it.
//
// An injected device-OOM fails the launch-time scratch allocation: the
// launch overhead is paid (the driver rejected it after queueing) but no
// SM time elapses. The error wraps ErrOutOfDeviceMemory so callers can
// free cache and relaunch.
func (g *GPU) LaunchKernel(p *sim.Proc, cycles float64) error {
	g.kernels.Acquire(p)
	p.Delay(g.Spec.LaunchOverhead)
	if g.inj.KernelOOM() {
		g.kernels.Release()
		return fmt.Errorf("%w: injected launch-time allocation failure on GPU%d",
			ErrOutOfDeviceMemory, g.Index)
	}
	g.runKernel(p, cycles)
	g.kernelCalls++
	return nil
}

// ContinueKernel runs cycles more work inside a launch the caller already
// has open on its stream: it takes a kernel slot and SM time as a launch
// does, but pays no launch overhead and draws no launch-time OOM, and it is
// not counted in KernelCalls.
func (g *GPU) ContinueKernel(p *sim.Proc, cycles float64) {
	g.kernels.Acquire(p)
	g.runKernel(p, cycles)
}

// runKernel occupies the SM pool for cycles and releases the kernel slot
// the caller holds.
func (g *GPU) runKernel(p *sim.Proc, cycles float64) {
	t := g.KernelTime(cycles)
	g.smPool.Use(p, t)
	g.kernels.Release()
	g.kernelTime += t
}

// Stats reports cumulative activity for metrics and the Figure 4 timeline.
func (g *GPU) Stats() GPUStats {
	return GPUStats{
		KernelCalls: g.kernelCalls,
		KernelTime:  g.kernelTime,
		H2DBytes:    g.h2dBytes,
		D2HBytes:    g.d2hBytes,
		H2DBusy:     g.h2d.BusyTime(),
		D2HBusy:     g.d2h.BusyTime(),
	}
}

// GPUStats is a snapshot of one GPU's cumulative activity.
type GPUStats struct {
	// KernelCalls counts kernel launches; work ContinueKernel runs inside
	// an open launch adds to KernelTime only.
	KernelCalls int64
	KernelTime  sim.Time
	H2DBytes    int64
	D2HBytes    int64
	// H2DBusy and D2HBusy are how long each DMA engine was occupied —
	// exactly the serialized copy spans of paper Fig. 3.
	H2DBusy sim.Time
	D2HBusy sim.Time
}
