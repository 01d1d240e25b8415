// Package core implements the GTS framework of the paper's §3-§4: it
// streams slotted-page topology from main memory or SSDs to (simulated)
// GPUs over asynchronous streams, runs page kernels against device-resident
// attribute data, and orchestrates level-by-level traversal for BFS-like
// algorithms or full scans for PageRank-like ones (Algorithm 1).
//
// Multi-GPU execution follows the paper's two schemes: Strategy-P
// (replicated attribute data, partitioned topology, peer-to-peer merge,
// §4.1) and Strategy-S (partitioned attribute data, broadcast topology,
// §4.2). Spare device memory becomes a topology-page cache (§3.3), and
// a host page buffer (internal/bufpool, bufferPIDMap) front-ends the SSDs.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bufpool"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// Strategy selects the multi-GPU scheme (paper §4).
type Strategy int

// Strategies.
const (
	// StrategyP copies the same attribute data to all GPUs and a different
	// part of the topology to each: high performance, WA must fit one GPU.
	StrategyP Strategy = iota
	// StrategyS copies a different attribute chunk to each GPU and the
	// same topology to all: scales WA across GPUs at some performance cost.
	StrategyS
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	if s == StrategyS {
		return "Strategy-S"
	}
	return "Strategy-P"
}

// CacheDisabled turns the device-memory page cache off when assigned to
// Options.CacheBytes.
const CacheDisabled int64 = -1

// ErrWontFit reports that the run cannot be configured within device
// memory; the message says which strategy or resource was exceeded.
var ErrWontFit = errors.New("core: working set exceeds device memory")

// ErrSourceOutOfRange reports a job whose source is not a vertex of the
// graph. It is the job's error alone: the rest of its roster carries on.
var ErrSourceOutOfRange = errors.New("core: source vertex out of range")

// ErrHardwareFault reports that an injected (or modeled) hardware fault
// persisted beyond the engine's retry budget and the run was abandoned.
// Recoverable faults never surface this error — they cost virtual time and
// show up in Report.Faults instead.
var ErrHardwareFault = errors.New("core: hardware fault persisted beyond retry budget")

// Options configure an engine run.
type Options struct {
	// Strategy selects the multi-GPU scheme. Default StrategyP.
	Strategy Strategy
	// Streams is the number of asynchronous GPU streams per GPU, 1-32
	// (paper §3.2). Default 32.
	Streams int
	// Technique selects the micro-level parallel scheme (paper §6.2).
	// Default EdgeCentric (the paper's default, VWC).
	Technique kernels.Technique
	// CacheBytes bounds the per-GPU topology page cache: 0 (the default)
	// uses all free device memory as the paper's §3.3 does, CacheDisabled
	// turns caching off, and a positive value sets the exact byte budget.
	CacheBytes int64
	// Trace, when non-nil, records per-stream spans for Figure 4.
	Trace *trace.Recorder
	// Faults, when non-nil, injects hardware failures from a seeded plan,
	// a fresh injector per run: PCI-E transfer errors/stalls, device OOM at
	// kernel launch, storage read errors, and page corruption. The engine
	// retries, re-reads, and degrades as needed; since kernels run
	// functionally and faults only perturb the simulated hardware, a
	// recovered run's results are byte-identical to a fault-free run's.
	Faults *fault.Plan
	// HostPool is the host page buffer of a storage-backed run (the paper's
	// MMBuf, Algorithm 1 lines 18-26). Nil gives every run a fresh private
	// pool of 20% of the topology (the paper's RMAT31/32 setting); a pool
	// handed to several engines is shared by them, so they keep at most one
	// host copy of each hot page. Its page size must match the graph's.
	// Ignored for fully in-memory runs. The pool only decides which reads
	// hit host memory — never what a kernel computes — so results are
	// byte-identical whichever pool serves a run.
	HostPool *bufpool.Pool
}

func (o Options) withDefaults() Options {
	if o.Streams == 0 {
		o.Streams = 32
	}
	return o
}

func (o Options) validate() error {
	if o.Streams < 1 || o.Streams > 32 {
		return fmt.Errorf("core: %d streams out of range [1,32]", o.Streams)
	}
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Metrics carries the run-level measurements every result shares: the one
// declaration of a run's metrics, which gts.Metrics aliases and gtsd serves
// (the field order and JSON tags are the served bytes).
type Metrics struct {
	// Elapsed is virtual wall-clock time on the modeled hardware.
	Elapsed sim.Time
	// Levels is traversal depth (BFS-like) or iterations (PageRank-like).
	Levels int32
	// PagesStreamed counts page copies into GPUs (cache hits excluded);
	// CacheHitRate is the device page-cache hit fraction (Fig. 11) and
	// BufferHitRate the host page buffer's over this run's own pins,
	// PoolHits / (PoolHits + PoolLoads + PoolWaits), 1 in memory. BytesToGPU
	// is total host-to-device traffic. StorageBytes is the bytes the
	// SSDs/HDDs served this run: one page per read the devices completed, so
	// a page that arrived corrupt and was re-read counts twice, and a read
	// that failed outright not at all.
	PagesStreamed int64
	CacheHitRate  float64
	BufferHitRate float64
	BytesToGPU    int64
	StorageBytes  int64
	// TransferTime is summed service time of streaming page copies and
	// KernelTime summed kernel execution — their ratio is Table 1. WABytes
	// is the device-resident attribute footprint (Table 4); MTEPS is
	// millions of traversed edges per second of elapsed time.
	TransferTime sim.Time
	KernelTime   sim.Time
	WABytes      int64
	MTEPS        float64
	// LevelPages and LevelBytes record, per traversal level (BFS-like) or
	// iteration (PageRank-like), how many pages and bytes streamed to the
	// GPUs — the per-level quantities Eq. 2 consumes.
	LevelPages []int64
	LevelBytes []int64
	// LevelDirs records, per forward traversal level, the direction a
	// FrontierKernel planned ("push" / "pull"). Empty for kernels without
	// direction optimization.
	LevelDirs []string `json:",omitempty"`
	// Faults counts injected hardware faults and the recovery work
	// (retries, recoveries, degradations) the run performed. All zero
	// unless a fault plan is set.
	Faults fault.Stats
	// HostKernelWall is the real (not virtual) time the host spent in
	// functional kernel execution, each wave's compute timed once. Not in
	// the JSON.
	HostKernelWall time.Duration `json:"-"`
	// PoolHits, PoolLoads and PoolWaits are this run's host page buffer
	// traffic (all zero for an in-memory run): pins served from a resident
	// page, pins that paid a storage read, and pins denied (frame busy in
	// another run, or every frame pinned) that fell back to a bypass read.
	PoolHits  int64 `json:",omitempty"`
	PoolLoads int64 `json:",omitempty"`
	PoolWaits int64 `json:",omitempty"`
}

// Report summarizes a finished run: its Metrics, the final state and the
// counters only the engine's own callers read.
type Report struct {
	Metrics
	// State is the merged final attribute state; decode it with the
	// kernel's accessor (e.g. (*kernels.BFS).Levels).
	State kernels.State
	// CacheHits counts pages served from the device-memory page cache.
	CacheHits int64
	// ResidentAtStart counts the device pages resident when the run
	// began, summed over GPUs: the device state its Elapsed depends on
	// besides the job (0 on an Engine's first run).
	ResidentAtStart int64
	// EdgesTraversed counts adjacency entries the kernels scanned.
	EdgesTraversed int64
	// Updates counts attribute writes.
	Updates int64
}

// Engine runs kernels over one graph on one machine specification. Each
// RunJob or RunShared builds a fresh simulation, but the device outlives
// it: the Engine keeps each GPU's topology page cache (§3.3), so a run
// starts with the pages the runs before it left resident. Result bytes
// never depend on that history; Elapsed and the traffic counters are a
// function of the device contents at start (Report.ResidentAtStart) and the
// job, so runs from the same start are deterministic. Runs on one Engine
// must not overlap: gts.System serializes them on its run mutex.
type Engine struct {
	spec  hw.MachineSpec
	graph *slottedpage.Graph
	opts  Options
	// device holds each GPU's page cache between runs: setup resizes it to
	// the run's budget and RunShared takes back what the run left. A nil
	// entry (never filled, disabled, or dropped by an OOM degradation)
	// starts that GPU cold.
	device []*hw.PageCache
}

// New validates the configuration and returns an engine.
func New(spec hw.MachineSpec, graph *slottedpage.Graph, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if graph.NumPages() == 0 {
		return nil, fmt.Errorf("core: graph has no pages")
	}
	if opts.HostPool != nil {
		if got, want := opts.HostPool.PageSize(), int64(graph.Config().PageSize); got != want {
			return nil, fmt.Errorf("core: host pool page size %d does not match the graph's %d", got, want)
		}
	}
	return &Engine{spec: spec, graph: graph, opts: opts, device: make([]*hw.PageCache, len(spec.GPUs))}, nil
}
