// Package gts is the public API of this repository's reproduction of
// "GTS: A Fast and Scalable Graph Processing Method based on Streaming
// Topology to GPUs" (Kim et al., SIGMOD 2016).
//
// GTS stores a graph's topology in the slotted page format on (simulated)
// PCI-E SSDs, keeps only the updatable attribute vectors in GPU device
// memory, and streams topology pages to thousands of GPU cores over
// asynchronous streams. This package wires the building blocks together:
//
//	g, _ := gts.Generate("RMAT27", 12)          // scaled-down proxy dataset
//	sys, _ := gts.NewSystem(g, gts.Config{GPUs: 2})
//	res, _ := sys.PageRank(0.85, 10)
//	fmt.Println(res.Elapsed, res.Ranks[0])
//
// Algorithms execute functionally (results are exact); elapsed times come
// from a deterministic discrete-event model of the paper's testbed — see
// DESIGN.md for the substitution rationale.
package gts

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graphgen"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// Graph is a slotted-page topology store (see internal/slottedpage).
type Graph = slottedpage.Graph

// PageConfig fixes the slotted page layout; see DefaultPageConfig.
type PageConfig = slottedpage.Config

// PageID identifies one slotted page within a Graph.
type PageID = slottedpage.PageID

// Source supplies topology to BuildGraph (internal/csr.Graph implements it).
// BuildGraph may call its Degree and Neighbors from several goroutines at
// once.
type Source = slottedpage.Source

// Strategy selects the multi-GPU scheme of the paper's §4.
type Strategy = core.Strategy

// Multi-GPU strategies.
const (
	// StrategyP replicates attribute data and partitions topology: fastest,
	// but WA must fit one GPU's memory (§4.1).
	StrategyP = core.StrategyP
	// StrategyS partitions attribute data and broadcasts topology: scales
	// WA across GPUs (§4.2).
	StrategyS = core.StrategyS
)

// ParseStrategy reads a strategy as the commands and the load endpoint
// spell it: "p" or "s" in either case, "" meaning the default Strategy-P.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "", "p":
		return StrategyP, nil
	case "s":
		return StrategyS, nil
	}
	return StrategyP, fmt.Errorf("gts: unknown strategy %q (want p or s)", s)
}

// Technique selects the micro-level parallel scheme of §6.2.
type Technique = kernels.Technique

// Micro-level techniques.
const (
	EdgeCentric   = kernels.EdgeCentric
	VertexCentric = kernels.VertexCentric
	Hybrid        = kernels.Hybrid
)

// Storage selects where the graph lives during a run.
type Storage int

// Storage placements.
const (
	// InMemory serves pages from main memory (the paper's setting for
	// graphs up to RMAT30).
	InMemory Storage = iota
	// SSDs streams pages from PCI-E SSD(s) through a main-memory buffer
	// (the paper's setting for RMAT31-32).
	SSDs
	// HDDs streams from spinning disks (Figure 9's worst case).
	HDDs
)

// ParseStorage reads a placement as the load document spells it: "mem",
// "ssd" or "hdd" in either case, "" meaning the default InMemory.
func ParseStorage(s string) (Storage, error) {
	switch strings.ToLower(s) {
	case "", "mem":
		return InMemory, nil
	case "ssd":
		return SSDs, nil
	case "hdd":
		return HDDs, nil
	}
	return InMemory, fmt.Errorf("gts: unknown storage %q (want mem, ssd or hdd)", s)
}

// MaxDevices bounds Config.GPUs and Config.Devices. The paper's testbed has
// two GPUs and two SSDs, and its figures sweep one to two of each; 16
// leaves room to scale past that. Every run builds a model of each device,
// so a count with no bound only costs: 2^20 GPUs made a 392 MB machine.
const MaxDevices = 16

// Config describes the machine and engine options for a System.
// The zero value means: 1 GPU, in-memory graph, Strategy-P, 32 streams,
// edge-centric kernels, page cache in all free device memory.
type Config struct {
	GPUs     int
	Storage  Storage
	Devices  int // SSD/HDD count; default 2 when Storage != InMemory
	Strategy Strategy
	Streams  int
	Tech     Technique
	// CacheBytes: 0 = all free device memory, gts.CacheDisabled = off.
	CacheBytes int64
	// ScaleFactor divides all memory capacities (device + host), used to
	// run scaled-down datasets against proportionally scaled hardware.
	// 0 or 1 means the paper's full-size machine.
	ScaleFactor int64
	// Trace records per-stream copy/kernel spans when non-nil.
	Trace *trace.Recorder
	// Faults, when non-nil, injects seeded hardware failures (PCI-E
	// transfer errors/stalls, device OOM, storage errors, page corruption)
	// into every run. The engine recovers where it can — results stay
	// byte-identical to a fault-free run — and returns an error wrapping
	// ErrHardwareFault when a fault persists beyond the retry budget.
	Faults *FaultPlan
	// PoolBytes sizes the host page buffer storage-backed runs stream
	// through (internal/bufpool, the paper's MMBuf). 0 gives every run a
	// fresh private buffer of 20% of the topology (the paper's setting).
	// > 0 builds one pinned, ref-counted pool of that many bytes that lives
	// as long as the System: pages stay warm from run to run. It may not
	// exceed the (scaled) machine's main memory. Ignored for in-memory
	// graphs. Results are byte-identical either way.
	PoolBytes int64
	// HostPool, when non-nil, is used directly instead of building a pool
	// from PoolBytes — the way several Systems share one pool.
	HostPool *BufferPool
}

// BufferPool is the pinned host page pool (see internal/bufpool). Build one
// with NewHostPool and hand it to every Config that should share it via
// Config.HostPool.
type BufferPool = bufpool.Pool

// PoolStats is a point-in-time snapshot of a BufferPool's counters.
type PoolStats = bufpool.Stats

// NewHostPool builds a host page pool for g of cfg.PoolBytes bytes
// (PoolBytes <= 0 defaults to 20% of the topology, mirroring the paper's
// MMBuf sizing). The returned pool may back any number of Systems over g.
func NewHostPool(g *Graph, cfg Config) (*BufferPool, error) {
	bytes := cfg.PoolBytes
	if bytes <= 0 {
		bytes = g.TopologyBytes() / 5
	}
	return bufpool.New(bufpool.Config{PageSize: int64(g.Config().PageSize), Bytes: bytes})
}

// withSharedPool resolves PoolBytes > 0 on a storage-backed Config into the
// HostPool its runs will share, unless one was supplied.
func (c Config) withSharedPool(g *Graph) (Config, error) {
	if c.Storage == InMemory || c.HostPool != nil || c.PoolBytes <= 0 {
		return c, nil
	}
	pool, err := NewHostPool(g, c)
	c.HostPool = pool
	return c, err
}

// FaultPlan is a deterministic, seedable fault-injection plan (see
// internal/fault). Equal plans replay identical fault sequences.
type FaultPlan = fault.Plan

// FaultStats counts injected faults and the recovery work a run performed.
type FaultStats = fault.Stats

// ErrHardwareFault reports that a hardware fault persisted beyond the
// engine's retry budget; the run was abandoned with no partial results.
var ErrHardwareFault = core.ErrHardwareFault

// ErrWontFit reports that a configuration's working set (WA + stream
// buffers) exceeds the machine's device memory.
var ErrWontFit = core.ErrWontFit

// ErrSourceOutOfRange reports a run from a vertex the graph does not have.
var ErrSourceOutOfRange = core.ErrSourceOutOfRange

// ErrInvalid reports input the system cannot take: an Open spec that names
// no dataset or shrink, a Config NewSystem rejects, an algorithm parameter
// the table refuses, an ingested edge beyond the addressable vertices.
var ErrInvalid = errors.New("gts: invalid input")

// CacheDisabled turns the device page cache off (Config.CacheBytes).
const CacheDisabled = core.CacheDisabled

// machineSpec realizes the Config as a hardware description.
func (c Config) machineSpec() hw.MachineSpec {
	gpus := c.GPUs
	if gpus == 0 {
		gpus = 1
	}
	devices := c.Devices
	if devices == 0 {
		devices = 2
	}
	var spec hw.MachineSpec
	switch c.Storage {
	case SSDs:
		spec = hw.Workstation(gpus, devices)
	case HDDs:
		spec = hw.WorkstationHDD(gpus, devices)
	default:
		spec = hw.Workstation(gpus, 0)
	}
	if c.ScaleFactor > 1 {
		spec = spec.Scale(c.ScaleFactor)
	}
	return spec
}

// DefaultPageConfig returns the paper's (p=2,q=2) layout with 1 MB pages.
func DefaultPageConfig() PageConfig { return slottedpage.Config22() }

// LargeGraphPageConfig returns the (p=3,q=3) layout with 64 MB pages the
// paper uses for RMAT30-32.
func LargeGraphPageConfig() PageConfig { return slottedpage.Config33() }

// ScaledPageConfig returns a (p,q) layout with a custom page size, for
// scaled-down datasets.
func ScaledPageConfig(p, q, pageSize int) PageConfig {
	return slottedpage.ScaledConfig(p, q, pageSize)
}

// BuildGraph packs a topology source into slotted pages.
func BuildGraph(src Source, cfg PageConfig) (*Graph, error) {
	return slottedpage.Build(src, cfg)
}

// Generate materializes one of the paper's datasets (RMAT26..RMAT32,
// Twitter, UK2007, YahooWeb) shrunk by 2^shrink and packs it into slotted
// pages with a proportionally scaled page size.
func Generate(dataset string, shrink int) (*Graph, error) {
	src, cfg, err := generate(dataset, shrink)
	if err != nil {
		return nil, err
	}
	return BuildGraph(src, cfg)
}

// generate is Generate short of packing the pages: the dataset's edges and
// the layout they pack into.
func generate(dataset string, shrink int) (Source, PageConfig, error) {
	d, ok := graphgen.ByName(dataset)
	if !ok {
		return nil, PageConfig{}, fmt.Errorf("gts: unknown dataset %q (see graphgen registry)", dataset)
	}
	g, err := d.Generate(shrink)
	if err != nil {
		return nil, PageConfig{}, err
	}
	return g, PageConfigFor(dataset, shrink), nil
}

// PageConfigFor returns the layout the paper uses for the dataset — (3,3)
// with 64 MB pages for RMAT30-32, (2,2) with 1 MB pages otherwise — with
// the page size shrunk alongside the data (floor 4 KiB).
func PageConfigFor(dataset string, shrink int) PageConfig {
	cfg := DefaultPageConfig()
	switch dataset {
	case "RMAT30", "RMAT31", "RMAT32":
		cfg = LargeGraphPageConfig()
	}
	size := cfg.PageSize >> shrink
	if size < 4096 {
		size = 4096
	}
	cfg.PageSize = size
	return cfg
}

// LoadGraph reads a slotted-page store written by (*Graph).WriteFile.
func LoadGraph(path string) (*Graph, error) { return slottedpage.ReadFile(path) }

// System binds a graph to a configured machine and runs algorithms on it.
//
// The machine's device memory is System state: each GPU's topology page
// cache (§3.3) keeps the pages one run left resident for the next, so a
// repeated or related query starts warm. Result bytes never depend on that
// history; a run's Elapsed and traffic counters depend on the device
// contents at its start and the job. A new System (one per ingest epoch in
// gtsd) starts cold.
//
// Concurrency: a System runs at most one algorithm at a time. Every
// algorithm call (BFS, PageRank, RunKernel, ...) takes an internal mutex
// for the duration of the run, so concurrent calls are safe but serialize
// — the second caller blocks until the first run finishes. The serialized
// section is the simulation, whose shared state (the device's page caches
// and the Config.Trace recorder) must not interleave between runs. Callers
// that need true parallelism should run each concurrent request on its own
// System over the same *Graph — a Graph is immutable after BuildGraph and
// safe to share.
type System struct {
	graph *Graph
	cfg   Config
	eng   *core.Engine // owns the device: its page caches outlive each run
	runMu sync.Mutex   // serializes algorithm runs (see the type comment)
}

// NewSystem validates the configuration against the graph (a rejected one
// is ErrInvalid), refusing at load what no run could use: a GPU or device
// count outside [0, MaxDevices], or a storage-backed host pool larger than
// the machine's main memory. A Config with PoolBytes > 0 and no
// Config.HostPool gets a System-lifetime pool of its own; pass the same
// NewHostPool result to several Systems to share.
func NewSystem(g *Graph, cfg Config) (*System, error) {
	if cfg.GPUs < 0 || cfg.GPUs > MaxDevices || cfg.Devices < 0 || cfg.Devices > MaxDevices {
		return nil, fmt.Errorf("%w: %d GPUs, %d storage devices: each count must be in [0,%d]", ErrInvalid, cfg.GPUs, cfg.Devices, MaxDevices)
	}
	cfg, err := cfg.withSharedPool(g)
	if err != nil {
		return nil, err
	}
	spec := cfg.machineSpec()
	if cfg.Storage != InMemory && cfg.HostPool != nil && cfg.HostPool.Budget() > spec.MainMemory {
		return nil, fmt.Errorf("%w: a host page pool of %d bytes exceeds the machine's %d bytes of main memory", ErrInvalid, cfg.HostPool.Budget(), spec.MainMemory)
	}
	// The engine built here surfaces configuration errors eagerly and then
	// serves every run.
	eng, err := core.New(spec, g, core.Options{
		Strategy:   cfg.Strategy,
		Streams:    cfg.Streams,
		Technique:  cfg.Tech,
		CacheBytes: cfg.CacheBytes,
		Trace:      cfg.Trace,
		Faults:     cfg.Faults,
		HostPool:   cfg.HostPool,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return &System{graph: g, cfg: cfg, eng: eng}, nil
}

// Graph returns the system's graph.
func (s *System) Graph() *Graph { return s.graph }

// Config returns the system's configuration, with HostPool set to the pool
// PoolBytes built, if any: a System built from it shares that pool.
func (s *System) Config() Config { return s.cfg }

// HostPool returns the System-lifetime host page pool its storage-backed
// runs stream through, or nil when every run builds a fresh private one (or
// the graph is in memory).
func (s *System) HostPool() *BufferPool { return s.cfg.HostPool }

// Metrics carries the run-level measurements shared by all results (see
// core.Metrics, the one declaration).
type Metrics = core.Metrics

func (s *System) run(k kernels.Kernel, source uint64) (*core.Report, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.eng.RunJob(core.SharedJob{Kernel: k, Source: source})
}

// Params carries one algorithm request's inputs. In a request (Run, gtsd)
// a zero field takes its default, and normalization zeroes the fields the
// algorithm does not use, so equivalent requests compare (and cache) equal.
type Params struct {
	// Source is the start vertex for bfs, sssp, bc, rwr, and ball.
	Source uint64 `json:"source,omitempty"`
	// Damping is PageRank's damping factor (default 0.85).
	Damping float64 `json:"damping,omitempty"`
	// Iterations bounds pagerank and rwr (default 10, at most 32 000).
	Iterations int `json:"iterations,omitempty"`
	// K is the core number for kcore (default 3).
	K int `json:"k,omitempty"`
	// Hops is the ball radius for ball (default 2).
	Hops int `json:"hops,omitempty"`
	// Restart is rwr's restart probability (default 0.15).
	Restart float64 `json:"restart,omitempty"`
	// Sketches and MaxHops tune radius (defaults 8 and 256).
	Sketches int `json:"sketches,omitempty"`
	MaxHops  int `json:"maxhops,omitempty"`
}

// Algorithm is one entry of the algorithm table, the only place that names
// an algorithm, fills its defaults, checks its parameters, builds its kernel
// and decodes its result. Run, the typed methods, gtsd and the commands all
// read it.
type Algorithm struct {
	// Normalize fills zero fields with defaults and zeroes the fields the
	// algorithm does not use, returning the canonical Params, or an error
	// wrapping ErrInvalid for a value the kernel cannot take.
	Normalize func(Params) (Params, error)
	// Kernel builds the kernel of a run over g with normalized p. The run
	// starts from p.Source, which normalization zeroes where it means nothing.
	Kernel func(g *Graph, p Params) Kernel
	// Decode assembles the result struct (*BFSResult, ...) from the final
	// state of k: the kernel Kernel built, or one that computes the same
	// state (the service's incremental bfs and cc re-plans).
	Decode func(k Kernel, st KernelState, p Params, m Metrics) any
}

// leveled and labeled are what the bfs, ball and cc decoders read, so any
// kernel with the same output decodes through them.
type leveled interface{ Levels(KernelState) []int16 }
type labeled interface{ Components(KernelState) []uint32 }

// maxSketches caps radius's state at 2 x 32 4-byte sketches per vertex.
const maxSketches = 32

var algorithms = map[string]Algorithm{
	"bfs": {
		Normalize: sourceOnly,
		Kernel:    func(g *Graph, _ Params) Kernel { return kernels.NewDirBFS(g) },
		Decode: func(k Kernel, st KernelState, _ Params, m Metrics) any {
			return &BFSResult{Metrics: m, Levels: k.(leveled).Levels(st)}
		},
	},
	"pagerank": {
		Normalize: func(p Params) (Params, error) {
			out := Params{Damping: cmp.Or(p.Damping, 0.85), Iterations: cmp.Or(p.Iterations, 10)}
			return out, errors.Join(probability("damping", out.Damping), inRange("iterations", out.Iterations, kernels.MaxLevels))
		},
		Kernel: func(g *Graph, p Params) Kernel { return kernels.NewPageRank(g, p.Damping, p.Iterations) },
		Decode: func(k Kernel, st KernelState, _ Params, m Metrics) any {
			return &PageRankResult{Metrics: m, Ranks: k.(*kernels.PageRank).Ranks(st)}
		},
	},
	"sssp": {
		Normalize: sourceOnly,
		Kernel:    func(g *Graph, _ Params) Kernel { return kernels.NewSSSP(g) },
		Decode: func(k Kernel, st KernelState, _ Params, m Metrics) any {
			return &SSSPResult{Metrics: m, Dist: k.(*kernels.SSSP).Distances(st)}
		},
	},
	"cc": {
		Normalize: func(Params) (Params, error) { return Params{}, nil },
		Kernel:    func(g *Graph, _ Params) Kernel { return kernels.NewCC(g) },
		Decode: func(k Kernel, st KernelState, _ Params, m Metrics) any {
			return &CCResult{Metrics: m, Labels: k.(labeled).Components(st)}
		},
	},
	"bc": {
		Normalize: sourceOnly,
		Kernel:    func(g *Graph, _ Params) Kernel { return kernels.NewBC(g) },
		Decode: func(k Kernel, st KernelState, p Params, m Metrics) any {
			return &BCResult{Metrics: m, Scores: k.(*kernels.BC).Centrality(st, p.Source)}
		},
	},
	"rwr": {
		Normalize: func(p Params) (Params, error) {
			out := Params{Source: p.Source, Restart: cmp.Or(p.Restart, 0.15), Iterations: cmp.Or(p.Iterations, 10)}
			return out, errors.Join(probability("restart", out.Restart), inRange("iterations", out.Iterations, kernels.MaxLevels))
		},
		Kernel: func(g *Graph, p Params) Kernel { return kernels.NewRWR(g, p.Restart, p.Iterations) },
		Decode: func(k Kernel, st KernelState, _ Params, m Metrics) any {
			return &RWRResult{Metrics: m, Scores: k.(*kernels.PageRank).Ranks(st)}
		},
	},
	"degree": {
		Normalize: func(Params) (Params, error) { return Params{}, nil },
		Kernel:    func(g *Graph, _ Params) Kernel { return kernels.NewDegreeDist(g) },
		Decode: func(k Kernel, st KernelState, _ Params, m Metrics) any {
			d := k.(*kernels.DegreeDist)
			return &DegreeResult{Metrics: m, Degrees: d.Degrees(st), Histogram: d.Histogram(st)}
		},
	},
	"kcore": {
		Normalize: func(p Params) (Params, error) {
			out := Params{K: cmp.Or(p.K, 3)}
			return out, inRange("k", out.K, math.MaxInt32)
		},
		Kernel: func(g *Graph, p Params) Kernel { return kernels.NewKCore(g, p.K) },
		Decode: func(k Kernel, st KernelState, _ Params, m Metrics) any {
			return &KCoreResult{Metrics: m, InCore: k.(*kernels.KCore).InCore(st)}
		},
	},
	"radius": {
		Normalize: func(p Params) (Params, error) {
			out := Params{Sketches: cmp.Or(p.Sketches, 8), MaxHops: cmp.Or(p.MaxHops, 256)}
			return out, errors.Join(inRange("sketches", out.Sketches, maxSketches), inRange("maxhops", out.MaxHops, kernels.MaxLevels))
		},
		Kernel: func(g *Graph, p Params) Kernel { return kernels.NewRadius(g, p.Sketches, p.MaxHops) },
		Decode: func(k Kernel, st KernelState, _ Params, m Metrics) any {
			r := k.(*kernels.Radius)
			return &RadiusResult{Metrics: m, Radii: r.Radii(st), EffectiveDiameter: r.EffectiveDiameter(st, 0.9)}
		},
	},
	"ball": {
		Normalize: func(p Params) (Params, error) {
			out := Params{Source: p.Source, Hops: cmp.Or(p.Hops, 2)}
			return out, inRange("hops", out.Hops, kernels.MaxLevels)
		},
		Kernel: func(g *Graph, p Params) Kernel { return kernels.NewNeighborhood(g, p.Hops) },
		Decode: func(k Kernel, st KernelState, _ Params, m Metrics) any {
			return &NeighborhoodResult{Metrics: m, Hops: k.(leveled).Levels(st)}
		},
	},
}

// sourceOnly normalizes the algorithms whose one parameter is the source.
func sourceOnly(p Params) (Params, error) { return Params{Source: p.Source}, nil }

// inRange checks a count parameter against [1, hi]; hi is what the kernel
// field storing it can hold, or a cap on what it costs.
func inRange(name string, v, hi int) error {
	if v < 1 || v > hi {
		return fmt.Errorf("%w: %s %d is outside [1, %d]", ErrInvalid, name, v, hi)
	}
	return nil
}

// probability checks a probability parameter against (0, 1).
func probability(name string, v float64) error {
	if !(v > 0 && v < 1) {
		return fmt.Errorf("%w: %s %v is outside (0, 1)", ErrInvalid, name, v)
	}
	return nil
}

// Algorithms lists the algorithm table's names, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// LookupAlgorithm returns the algorithm table's entry for name.
func LookupAlgorithm(name string) (Algorithm, bool) {
	a, ok := algorithms[name]
	return a, ok
}

// Run normalizes p for the named algorithm, runs it and returns its result
// struct (*BFSResult for "bfs", ...). An unknown name or a parameter
// normalization refuses is ErrInvalid.
func (s *System) Run(algo string, p Params) (any, error) {
	a, ok := algorithms[algo]
	if !ok {
		return nil, fmt.Errorf("%w: unknown algorithm %q (have %v)", ErrInvalid, algo, Algorithms())
	}
	p, err := a.Normalize(p)
	if err != nil {
		return nil, err
	}
	k := a.Kernel(s.graph, p)
	rep, err := s.run(k, p.Source)
	if err != nil {
		return nil, err
	}
	return a.Decode(k, rep.State, p, rep.Metrics), nil
}

// typed is a typed method's Run. Its parameters are explicit, so a zero
// does not mean "default" here: the call is ErrInvalid unless normalization
// leaves p unchanged.
func typed[R any](s *System, algo string, p Params) (res R, err error) {
	q, err := algorithms[algo].Normalize(p)
	if err == nil && q != p {
		err = fmt.Errorf("%w: %s with %+v: a zero takes the default only in a request", ErrInvalid, algo, p)
	}
	if err == nil {
		var out any
		if out, err = s.Run(algo, p); err == nil {
			res = out.(R)
		}
	}
	return res, err
}

// BFSResult holds per-vertex traversal levels (-1 = unreachable).
type BFSResult struct {
	Metrics
	Levels []int16
}

// BFS runs breadth-first search from source on the direction-optimizing
// kernel (kernels.NewDirBFS), which switches per level between sparse push
// and dense pull on frontier-edge density. Its levels are the paper's
// kernel's (kernels.NewBFS, which RunKernel runs); its traversal schedule,
// data movement and MTEPS accounting are its own. Per-level directions surface
// in Metrics.LevelDirs and on Superstep trace spans.
func (s *System) BFS(source uint64) (*BFSResult, error) {
	return typed[*BFSResult](s, "bfs", Params{Source: source})
}

// PageRankResult holds the final rank vector.
type PageRankResult struct {
	Metrics
	Ranks []float32
}

// PageRank runs the given number of iterations with damping factor df.
func (s *System) PageRank(df float64, iterations int) (*PageRankResult, error) {
	return typed[*PageRankResult](s, "pagerank", Params{Damping: df, Iterations: iterations})
}

// SSSPResult holds distances (math.MaxFloat32 = unreachable) under the
// deterministic synthetic weights of kernels.Weight.
type SSSPResult struct {
	Metrics
	Dist []float32
}

// SSSP runs single-source shortest paths from source.
func (s *System) SSSP(source uint64) (*SSSPResult, error) {
	return typed[*SSSPResult](s, "sssp", Params{Source: source})
}

// CCResult holds weakly-connected-component labels (minimum vertex ID per
// component).
type CCResult struct {
	Metrics
	Labels []uint32
}

// CC runs connected components.
func (s *System) CC() (*CCResult, error) { return typed[*CCResult](s, "cc", Params{}) }

// BCResult holds single-source betweenness scores.
type BCResult struct {
	Metrics
	Scores []float64
}

// BC runs single-source betweenness centrality from source.
func (s *System) BC(source uint64) (*BCResult, error) {
	return typed[*BCResult](s, "bc", Params{Source: source})
}

// RWRResult holds Random-Walk-with-Restart proximity scores.
type RWRResult struct {
	Metrics
	Scores []float32
}

// RWR runs Random Walk with Restart from source with restart probability c
// for the given iteration count.
func (s *System) RWR(source uint64, c float64, iterations int) (*RWRResult, error) {
	return typed[*RWRResult](s, "rwr", Params{Source: source, Restart: c, Iterations: iterations})
}

// DegreeResult holds per-vertex out-degrees and their histogram.
type DegreeResult struct {
	Metrics
	Degrees   []int32
	Histogram []int64
}

// DegreeDistribution computes out-degrees in one full topology scan.
func (s *System) DegreeDistribution() (*DegreeResult, error) {
	return typed[*DegreeResult](s, "degree", Params{})
}

// KCoreResult holds K-core membership.
type KCoreResult struct {
	Metrics
	InCore []bool
}

// KCore peels the graph to its K-core (multigraph undirected degree).
func (s *System) KCore(k int) (*KCoreResult, error) {
	return typed[*KCoreResult](s, "kcore", Params{K: k})
}

// RadiusResult holds per-vertex eccentricity estimates and the graph's
// effective diameter.
type RadiusResult struct {
	Metrics
	// Radii are per-vertex out-eccentricity estimates: the hop at which
	// each vertex's reachable-set sketch last grew.
	Radii []int32
	// EffectiveDiameter is the hop within which 90% of vertices'
	// sketches had stabilized.
	EffectiveDiameter int32
}

// Radius estimates per-vertex radii and the graph's effective diameter with
// ANF-style Flajolet-Martin sketches (the paper's 3.3 "radius estimations").
func (s *System) Radius(sketches, maxHops int) (*RadiusResult, error) {
	return typed[*RadiusResult](s, "radius", Params{Sketches: sketches, MaxHops: maxHops})
}

// NeighborhoodResult holds k-hop ball membership.
type NeighborhoodResult struct {
	Metrics
	// Hops[v] is the distance from the source (-1 = outside the ball).
	Hops []int16
}

// Neighborhood computes the k-hop out-neighborhood of source, streaming
// only the pages inside the ball (the paper's 3.3 neighborhood/egonet
// family). hops outside [1, kernels.MaxLevels] is ErrInvalid.
func (s *System) Neighborhood(source uint64, hops int) (*NeighborhoodResult, error) {
	return typed[*NeighborhoodResult](s, "ball", Params{Source: source, Hops: hops})
}

// CrossEdgesResult holds a bipartition's crossing-edge count.
type CrossEdgesResult struct {
	Metrics
	Total int64
}

// CrossEdges counts edges whose endpoints fall on different sides of the
// given predicate, in one full scan.
func (s *System) CrossEdges(side func(v uint64) bool) (*CrossEdgesResult, error) {
	k := kernels.NewCrossEdges(s.graph, side)
	rep, err := s.run(k, 0)
	if err != nil {
		return nil, err
	}
	return &CrossEdgesResult{Metrics: rep.Metrics, Total: k.Total(rep.State)}, nil
}

// Kernel is the user-defined algorithm interface of the paper's framework:
// one page kernel, run on small and large pages alike (a large page is a
// page with one slot, its vertex), plus state management — NewState, Init,
// Run and MergeStates. A custom kernel is a ScanKernel: it adds
// EndIteration and streams the whole topology every iteration — see
// examples/customkernel. The built-in traversals (BFS, SSSP, BC, ...) are
// Kernels that also plan each level's pages from their own state
// (internal/kernels.FrontierKernel); RunKernel refuses a Kernel that does
// neither, before any work.
type Kernel = kernels.Kernel

// ScanKernel is a Kernel that scans the whole topology every iteration
// (PageRank-like); its EndIteration decides whether another one runs.
type ScanKernel = kernels.ScanKernel

// KernelArgs carries one page-kernel invocation's inputs: the page, the
// state, the level or iteration and the owned vertex range. A page kernel
// marks no pages; which pages run is the engine's (a scan) or the
// traversal's own plan.
type KernelArgs = kernels.Args

// KernelResult reports one page-kernel execution.
type KernelResult = kernels.Result

// KernelState is an algorithm's attribute data (the paper's WA).
type KernelState = kernels.State

// RunKernel executes a custom kernel on the system and returns its final
// state along with the run metrics.
func (s *System) RunKernel(k Kernel, source uint64) (KernelState, Metrics, error) {
	rep, err := s.run(k, source)
	if err != nil {
		return nil, Metrics{}, err
	}
	return rep.State, rep.Metrics, nil
}

// SharedJob is one job of a RunShared roster. A nil Trace records into
// Config.Trace; every run draws its faults from Config.Faults.
type SharedJob = core.SharedJob

// SharedOutcome is one job's result from RunShared: its State and Metrics,
// or an Err, or Declined (see core.SharedOutcome).
type SharedOutcome = core.SharedOutcome

// SharedStats is a RunShared run's accounting (page copies, the lanes
// sharing them, traffic paid); see core.SharedStats.
type SharedStats = core.SharedStats

// RunShared runs a roster of jobs as one kernel on one simulated machine
// (core.Engine.RunShared): a roster of one runs that job as it is, and
// several plain-BFS jobs (kernels.NewBFS or NewNeighborhood) run as one
// multi-source BFS, a lane per job, each page streaming once for every lane
// that needs it. Each job's final state is byte-identical to what its solo
// run would produce, and decodes with its own kernel. Any other roster, or
// one of none, is an error that runs nothing. admit, when non-nil, is called
// once with the System's run mutex held (on which, like all algorithm entry
// points, RunShared serializes), and the jobs it returns follow jobs. The
// outcomes come back in that order; a run that fails returns its error,
// which every job carries.
func (s *System) RunShared(jobs []SharedJob, admit func() []SharedJob) ([]SharedOutcome, SharedStats, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if admit != nil {
		jobs = append(jobs[:len(jobs):len(jobs)], admit()...)
	}
	return s.eng.RunShared(jobs)
}
