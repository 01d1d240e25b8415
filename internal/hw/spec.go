// Package hw models the hardware GTS runs on — GPUs, the PCI-E interconnect,
// SSD/HDD storage and host memory — as deterministic discrete-event resources
// on top of internal/sim.
//
// The models are calibrated to the paper's testbed (§7.1): a workstation with
// two Intel Xeon E5-2687W CPUs, 128 GB of main memory, two NVIDIA GTX TITAN X
// GPUs (12 GB device memory each) and two Fusion-io PCI-E SSDs, connected by
// PCI-E 3.0 x16. Graph kernels execute functionally in Go; only their *time*
// comes from these models, so results are exact and timings are reproducible.
package hw

import (
	"fmt"

	"repro/internal/sim"
)

// GPUSpec describes one GPU.
type GPUSpec struct {
	Name string
	// DeviceMemory is the device DRAM capacity in bytes.
	DeviceMemory int64
	// ConcurrentKernels is the hardware queue limit for kernels executing
	// at once (32 for CUDA at the paper's time, §3.2).
	ConcurrentKernels int
	// CyclesPerSec is the aggregate SM throughput in model cycles/second,
	// reached when KernelConcurrency kernels are resident.
	CyclesPerSec float64
	// KernelConcurrency is how many concurrent page kernels saturate the
	// SMs: one kernel alone runs at CyclesPerSec/KernelConcurrency (a
	// single page cannot occupy every SM), which is why the paper's
	// Figure 10 keeps improving up to 32 streams and why Table 1's
	// per-page kernel times exceed per-page transfer times even though
	// whole runs are stream-bound.
	KernelConcurrency int
	// LaunchOverhead is the driver-side latency of submitting one kernel;
	// it is paid inside the submitting stream, so more streams overlap it
	// (the effect behind the paper's Figure 10). Work a stream runs inside
	// a launch it already has open (GPU.ContinueKernel) does not pay it.
	LaunchOverhead sim.Time
	// ThermalLimit, when positive, is the cumulative kernel busy time
	// after which the GPU down-clocks to ThermalFactor of its throughput —
	// the paper observes exactly this on RMAT32: "the performance of GPUs
	// tends to be degraded (e.g., down-clocking) due to overheat when
	// processing for a long time" (§7.2). Zero disables the model.
	ThermalLimit sim.Time
	// ThermalFactor is the throttled throughput fraction in (0,1].
	ThermalFactor float64
}

// PCIeSpec describes the host interconnect.
type PCIeSpec struct {
	// ChunkRate is c1 — bytes/second for large pinned chunk copies
	// (~16 GB/s on PCI-E 3.0 x16, paper §5.1).
	ChunkRate float64
	// StreamRate is c2 — bytes/second in streaming copy mode (~6 GB/s).
	StreamRate float64
	// P2PRate is the GPU peer-to-peer copy rate, "much faster than between
	// GPU and main memory" (paper §4.1).
	P2PRate float64
	// Latency is the fixed per-transfer setup cost.
	Latency sim.Time
}

// StorageKind distinguishes device classes.
type StorageKind int

// Storage kinds.
const (
	SSD StorageKind = iota
	HDD
)

// String returns "SSD" or "HDD".
func (k StorageKind) String() string {
	if k == HDD {
		return "HDD"
	}
	return "SSD"
}

// StorageSpec describes one secondary-storage device.
type StorageSpec struct {
	Kind StorageKind
	// SeqRead is the sequential read bandwidth in bytes/second.
	SeqRead float64
	// RandRead is the bandwidth for non-sequential page reads. SSDs lose
	// little; HDDs collapse (seeks).
	RandRead float64
	// Latency is the fixed per-request latency.
	Latency sim.Time
}

// MachineSpec is a full single-machine configuration.
type MachineSpec struct {
	GPUs       []GPUSpec
	PCIe       PCIeSpec
	Storage    []StorageSpec
	MainMemory int64
}

// TitanX returns the paper's NVIDIA GTX TITAN X model. The cycle rate is
// calibrated so that the paper's Table 1 transfer:kernel ratios emerge for
// BFS and PageRank page kernels (see internal/kernels' cost constants).
func TitanX() GPUSpec {
	return GPUSpec{
		Name:              "GTX TITAN X",
		DeviceMemory:      12 << 30,
		ConcurrentKernels: 32,
		CyclesPerSec:      300e9,
		KernelConcurrency: 16,
		LaunchOverhead:    8 * sim.Microsecond,
	}
}

// PCIe3x16 returns the paper's PCI-E 3.0 x16 link model.
func PCIe3x16() PCIeSpec {
	return PCIeSpec{
		ChunkRate:  16e9,
		StreamRate: 6e9,
		P2PRate:    20e9,
		Latency:    10 * sim.Microsecond,
	}
}

// FusionIOSSD returns one of the paper's PCI-E SSDs: two of them reach
// ~5 GB/s sequential read (paper §7.5).
func FusionIOSSD() StorageSpec {
	return StorageSpec{Kind: SSD, SeqRead: 2.5e9, RandRead: 2.0e9, Latency: 60 * sim.Microsecond}
}

// SATAHDD returns one of the paper's HDDs: two reach ~330 MB/s sequential.
func SATAHDD() StorageSpec {
	return StorageSpec{Kind: HDD, SeqRead: 165e6, RandRead: 30e6, Latency: 8 * sim.Millisecond}
}

// Workstation returns the paper's single-machine testbed with the given GPU
// and SSD counts (up to 2 of each, as in the paper).
func Workstation(gpus, ssds int) MachineSpec {
	spec := MachineSpec{
		PCIe:       PCIe3x16(),
		MainMemory: 128 << 30,
	}
	for i := 0; i < gpus; i++ {
		spec.GPUs = append(spec.GPUs, TitanX())
	}
	for i := 0; i < ssds; i++ {
		spec.Storage = append(spec.Storage, FusionIOSSD())
	}
	return spec
}

// WorkstationHDD is Workstation with HDDs in place of SSDs (Figure 9's
// "2 HDDs" configuration).
func WorkstationHDD(gpus, hdds int) MachineSpec {
	spec := Workstation(gpus, 0)
	for i := 0; i < hdds; i++ {
		spec.Storage = append(spec.Storage, SATAHDD())
	}
	return spec
}

// Scale returns a copy of the spec with every *capacity* and every fixed
// per-operation *latency* divided by factor, leaving bandwidths untouched.
// The harness scales hardware by the same power of two as the datasets:
// capacities shrink so OOM crossovers land where the paper's do, and
// latencies shrink because pages shrink alongside — a 4096x smaller page
// must not pay the full-size per-request setup cost, or latency would
// dominate transfer in a way it never does at paper scale. Virtual times
// then extrapolate back by multiplying with the same factor.
func (m MachineSpec) Scale(factor int64) MachineSpec {
	if factor <= 0 {
		panic(fmt.Sprintf("hw: scale factor %d must be positive", factor))
	}
	out := m
	out.GPUs = append([]GPUSpec(nil), m.GPUs...)
	for i := range out.GPUs {
		out.GPUs[i].DeviceMemory /= factor
		out.GPUs[i].LaunchOverhead /= sim.Time(factor)
	}
	out.MainMemory /= factor
	out.PCIe.Latency /= sim.Time(factor)
	out.Storage = append([]StorageSpec(nil), m.Storage...)
	for i := range out.Storage {
		out.Storage[i].Latency /= sim.Time(factor)
	}
	return out
}

// Validate reports whether the spec is usable.
func (m MachineSpec) Validate() error {
	if len(m.GPUs) == 0 {
		return fmt.Errorf("hw: machine has no GPUs")
	}
	for i, g := range m.GPUs {
		if g.DeviceMemory <= 0 || g.CyclesPerSec <= 0 || g.ConcurrentKernels < 1 || g.KernelConcurrency < 1 {
			return fmt.Errorf("hw: GPU %d spec invalid", i)
		}
	}
	if m.PCIe.ChunkRate <= 0 || m.PCIe.StreamRate <= 0 {
		return fmt.Errorf("hw: PCI-E rates must be positive")
	}
	if m.MainMemory <= 0 {
		return fmt.Errorf("hw: main memory must be positive")
	}
	return nil
}
