package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/csr"
	"repro/internal/graphgen"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
	"repro/internal/trace"
	"repro/internal/verify"
)

// testConfig keeps pages small so even tiny graphs span many pages.
func testConfig() slottedpage.Config { return slottedpage.ScaledConfig(2, 2, 4096) }

func buildPages(t *testing.T, g *csr.Graph) *slottedpage.Graph {
	t.Helper()
	sp, err := slottedpage.Build(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// rmatGraph returns a moderately sized skewed test graph.
func rmatGraph(t *testing.T) *csr.Graph {
	t.Helper()
	d, _ := graphgen.ByName("RMAT27")
	return d.MustGenerate(27 - 11) // scale 11: 2048 vertices, ~32k edges
}

func newEngine(t *testing.T, g *slottedpage.Graph, opts Options, gpus, ssds int) *Engine {
	t.Helper()
	e, err := New(hw.Workstation(gpus, ssds), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustRun runs kernel k from source on e as a job of its own (RunJob).
func mustRun(t *testing.T, e *Engine, k kernels.Kernel, source uint64) *Report {
	t.Helper()
	rep, err := e.RunJob(SharedJob{Kernel: k, Source: source})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// configurations spans the strategy x GPU-count x storage matrix all
// correctness tests run under.
type config struct {
	name     string
	strategy Strategy
	gpus     int
	ssds     int
}

func configurations() []config {
	return []config{
		{"P-1gpu-mem", StrategyP, 1, 0},
		{"P-2gpu-mem", StrategyP, 2, 0},
		{"S-2gpu-mem", StrategyS, 2, 0},
		{"P-1gpu-ssd", StrategyP, 1, 1},
		{"P-2gpu-2ssd", StrategyP, 2, 2},
		{"S-2gpu-2ssd", StrategyS, 2, 2},
	}
}

func TestBFSMatchesReferenceAcrossConfigs(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	want := verify.BFS(g, 0)
	for _, cfg := range configurations() {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			k := kernels.NewBFS(sp)
			rep := mustRun(t, e, k, 0)
			got := k.Levels(rep.State)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d level = %d, want %d", v, got[v], want[v])
				}
			}
			if rep.Elapsed <= 0 {
				t.Error("no virtual time elapsed")
			}
		})
	}
}

// TestBFSLevelBoundMatchesReference: the engine and verify.BFS share one
// depth bound, kernels.MaxLevels. Both answer a chain whose tail lies at
// that level, and the engine refuses one vertex more (verify's own test pins
// its refusal).
func TestBFSLevelBoundMatchesReference(t *testing.T) {
	const deepest = kernels.MaxLevels
	chain := graphgen.Path(deepest + 1)
	sp := buildPages(t, chain)
	k := kernels.NewBFS(sp)
	rep := mustRun(t, newEngine(t, sp, Options{}, 1, 0), k, 0)
	if got, want := k.Levels(rep.State)[deepest], verify.BFS(chain, 0)[deepest]; got != want || got != deepest {
		t.Fatalf("tail at level %d, reference %d, want %d", got, want, deepest)
	}
	sp = buildPages(t, graphgen.Path(deepest+2))
	if _, err := newEngine(t, sp, Options{}, 1, 0).RunJob(SharedJob{Kernel: kernels.NewBFS(sp)}); err == nil {
		t.Fatal("the engine answered a 32002-vertex chain")
	}
}

func TestPageRankMatchesReferenceAcrossConfigs(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	want := verify.PageRank(g, 0.85, 5)
	for _, cfg := range configurations() {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			k := kernels.NewPageRank(sp, 0.85, 5)
			rep := mustRun(t, e, k, 0)
			got := k.Ranks(rep.State)
			for v := range want {
				if math.Abs(float64(got[v])-want[v]) > 1e-4*math.Max(want[v], 1e-9)+1e-7 {
					t.Fatalf("vertex %d rank = %v, want %v", v, got[v], want[v])
				}
			}
			if rep.Levels != 5 {
				t.Errorf("iterations = %d, want 5", rep.Levels)
			}
		})
	}
}

func TestSSSPMatchesReferenceAcrossConfigs(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	want := verify.SSSP(g, 0, kernels.Weight)
	for _, cfg := range configurations() {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			k := kernels.NewSSSP(sp)
			rep := mustRun(t, e, k, 0)
			got := k.Distances(rep.State)
			for v := range want {
				if math.IsInf(want[v], 1) {
					if got[v] != float32(math.MaxFloat32) {
						t.Fatalf("vertex %d reachable (%v), want unreachable", v, got[v])
					}
					continue
				}
				if float64(got[v]) != want[v] {
					t.Fatalf("vertex %d dist = %v, want %v", v, got[v], want[v])
				}
			}
		})
	}
}

func TestCCMatchesReferenceAcrossConfigs(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	want := verify.WCC(g)
	for _, cfg := range configurations() {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			k := kernels.NewCC(sp)
			rep := mustRun(t, e, k, 0)
			got := k.Components(rep.State)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d component = %d, want %d", v, got[v], want[v])
				}
			}
		})
	}
}

func TestBCMatchesReferenceAcrossConfigs(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	want := verify.BC(g, 0)
	for _, cfg := range configurations() {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			k := kernels.NewBC(sp)
			rep := mustRun(t, e, k, 0)
			got := k.Centrality(rep.State, 0)
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-6*math.Max(want[v], 1)+1e-9 {
					t.Fatalf("vertex %d bc = %v, want %v", v, got[v], want[v])
				}
			}
		})
	}
}

func TestBFSOnStructuredGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *csr.Graph
		src  uint64
	}{
		{"path", graphgen.Path(500), 0},
		{"cycle", graphgen.Cycle(300), 7},
		{"star", graphgen.Star(400), 0},
		{"grid", graphgen.Grid(20, 25), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := buildPages(t, tc.g)
			want := verify.BFS(tc.g, uint32(tc.src))
			e := newEngine(t, sp, Options{}, 1, 0)
			k := kernels.NewBFS(sp)
			rep := mustRun(t, e, k, tc.src)
			got := k.Levels(rep.State)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("vertex %d level = %d, want %d", v, got[v], want[v])
				}
			}
		})
	}
}

func TestTechniquesAllCorrect(t *testing.T) {
	// Micro-level technique affects only time, never results (§6.2).
	g := rmatGraph(t)
	sp := buildPages(t, g)
	want := verify.BFS(g, 0)
	for _, tech := range []kernels.Technique{kernels.EdgeCentric, kernels.VertexCentric, kernels.Hybrid} {
		e := newEngine(t, sp, Options{Technique: tech}, 1, 0)
		k := kernels.NewBFS(sp)
		rep := mustRun(t, e, k, 0)
		got := k.Levels(rep.State)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%v: vertex %d level = %d, want %d", tech, v, got[v], want[v])
			}
		}
	}
}

// TestDeterministicElapsed: a run's Elapsed is a function of the device
// contents at its start and the job. Two fresh Engines start cold and agree;
// on one Engine the first run warms the device, and once it has settled the
// second and third runs start from the same pages and agree too.
func TestDeterministicElapsed(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	k := kernels.NewBFS(sp)
	e := newEngine(t, sp, Options{}, 2, 2)
	cold := mustRun(t, e, k, 0)
	fresh := mustRun(t, newEngine(t, sp, Options{}, 2, 2), k, 0)
	if cold.Elapsed != fresh.Elapsed || cold.PagesStreamed != fresh.PagesStreamed {
		t.Errorf("two fresh engines: %v/%d vs %v/%d", cold.Elapsed, cold.PagesStreamed, fresh.Elapsed, fresh.PagesStreamed)
	}
	a := mustRun(t, e, k, 0)
	b := mustRun(t, e, k, 0)
	if a.ResidentAtStart != b.ResidentAtStart || a.Elapsed != b.Elapsed || a.PagesStreamed != b.PagesStreamed {
		t.Errorf("settled device, runs 2 and 3: %d resident, %v/%d vs %d resident, %v/%d",
			a.ResidentAtStart, a.Elapsed, a.PagesStreamed, b.ResidentAtStart, b.Elapsed, b.PagesStreamed)
	}
	if a.Elapsed > cold.Elapsed {
		t.Errorf("warm run %v slower than the cold one, %v", a.Elapsed, cold.Elapsed)
	}
}

func TestStrategyPWontFitSuggestsS(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	// Scale device memory down so a full CC WA replica does not fit but
	// half (Strategy-S with 2 GPUs) does.
	spec := hw.Workstation(2, 0)
	waBytes := int64(g.NumVertices()) * 4 // CC keeps one label vector
	bufBytes := int64(4) * (2 * 4096)     // 4 streams, SPBuf+LPBuf, no RA
	for i := range spec.GPUs {
		spec.GPUs[i].DeviceMemory = waBytes*3/4 + bufBytes // full WA won't fit; half will
	}
	eP, err := New(spec, sp, Options{Strategy: StrategyP, Streams: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eP.RunJob(SharedJob{Kernel: kernels.NewCC(sp)}); !errors.Is(err, ErrWontFit) {
		t.Fatalf("Strategy-P err = %v, want ErrWontFit", err)
	}
	eS, err := New(spec, sp, Options{Strategy: StrategyS, Streams: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := verify.WCC(g)
	k := kernels.NewCC(sp)
	rep, err := eS.RunJob(SharedJob{Kernel: k})
	if err != nil {
		t.Fatalf("Strategy-S failed: %v", err)
	}
	got := k.Components(rep.State)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d component mismatch", v)
		}
	}
}

func TestCachingReducesStreaming(t *testing.T) {
	// BFS revisits pages across levels; with a cache covering the whole
	// graph, repeat visits must be hits.
	g := rmatGraph(t)
	sp := buildPages(t, g)
	k := kernels.NewBFS(sp)

	noCache := mustRun(t, newEngine(t, sp, Options{CacheBytes: CacheDisabled}, 1, 0), k, 0)
	bigCache := mustRun(t, newEngine(t, sp, Options{CacheBytes: 0}, 1, 0), k, 0)
	if noCache.CacheHits != 0 {
		t.Errorf("cache disabled but %d hits", noCache.CacheHits)
	}
	if bigCache.CacheHits == 0 {
		t.Error("full cache produced no hits")
	}
	if bigCache.PagesStreamed >= noCache.PagesStreamed {
		t.Errorf("caching did not reduce streaming: %d vs %d", bigCache.PagesStreamed, noCache.PagesStreamed)
	}
	if bigCache.Elapsed >= noCache.Elapsed {
		t.Errorf("caching did not reduce time: %v vs %v", bigCache.Elapsed, noCache.Elapsed)
	}
}

func TestMoreStreamsNotSlower(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	k := kernels.NewPageRank(sp, 0.85, 3)
	t1 := mustRun(t, newEngine(t, sp, Options{Streams: 1}, 1, 0), k, 0).Elapsed
	t16 := mustRun(t, newEngine(t, sp, Options{Streams: 16}, 1, 0), k, 0).Elapsed
	if t16 > t1 {
		t.Errorf("16 streams (%v) slower than 1 (%v)", t16, t1)
	}
}

func TestStorageHierarchyOrdering(t *testing.T) {
	// In-memory < SSD < HDD elapsed time (Fig. 9's storage-type axis).
	g := rmatGraph(t)
	sp := buildPages(t, g)
	mk := func(spec hw.MachineSpec) *Report {
		e, err := New(spec, sp, Options{CacheBytes: CacheDisabled, HostPool: newTestPool(t, sp, int64(sp.Config().PageSize))})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, e, kernels.NewPageRank(sp, 0.85, 3), 0)
	}
	mem := mk(hw.Workstation(1, 0))
	ssd := mk(hw.Workstation(1, 1))
	hdd := mk(hw.WorkstationHDD(1, 1))
	if !(mem.Elapsed < ssd.Elapsed && ssd.Elapsed < hdd.Elapsed) {
		t.Errorf("ordering violated: mem %v, ssd %v, hdd %v", mem.Elapsed, ssd.Elapsed, hdd.Elapsed)
	}
	if mem.StorageBytes != 0 || ssd.StorageBytes == 0 {
		t.Errorf("storage bytes: mem %d, ssd %d", mem.StorageBytes, ssd.StorageBytes)
	}
}

func TestTwoSSDsFasterThanOne(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	mk := func(ssds int) *Report {
		e, err := New(hw.Workstation(1, ssds), sp, Options{CacheBytes: CacheDisabled, HostPool: newTestPool(t, sp, int64(sp.Config().PageSize))})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, e, kernels.NewPageRank(sp, 0.85, 3), 0)
	}
	one, two := mk(1), mk(2)
	if two.Elapsed >= one.Elapsed {
		t.Errorf("2 SSDs (%v) not faster than 1 (%v)", two.Elapsed, one.Elapsed)
	}
}

func TestPageRankRAStreamsWithPages(t *testing.T) {
	// On two GPUs PageRank streams 4 bytes of prevPR per vertex along with
	// each page (one GPU keeps RA resident; TestResidentRA): past both GPUs'
	// WA uploads and the topology, BytesToGPU carries at least one whole RA.
	g := rmatGraph(t)
	sp := buildPages(t, g)
	rep := mustRun(t, newEngine(t, sp, Options{CacheBytes: CacheDisabled}, 2, 0), kernels.NewPageRank(sp, 0.85, 1), 0)
	topo := int64(rep.PagesStreamed) * int64(sp.Config().PageSize)
	if ra := rep.BytesToGPU - 2*rep.WABytes - topo; ra < int64(sp.NumVertices())*4 {
		t.Errorf("BytesToGPU %d carries %d RA bytes beyond WA and topology %d, want at least %d", rep.BytesToGPU, ra, topo, sp.NumVertices()*4)
	}
}

func TestTraceRecordsSpans(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	rec := trace.New()
	e := newEngine(t, sp, Options{Trace: rec, Streams: 4}, 1, 0)
	mustRun(t, e, kernels.NewPageRank(sp, 0.85, 1), 0)
	if rec.Total(trace.Kernel) == 0 || rec.Total(trace.CopyPage) == 0 {
		t.Error("trace missing kernel or copy spans")
	}
}

func TestReportMetricsSane(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	rep := mustRun(t, newEngine(t, sp, Options{}, 1, 0), kernels.NewBFS(sp), 0)
	if rep.MTEPS <= 0 {
		t.Error("MTEPS not positive")
	}
	if rep.WABytes != int64(g.NumVertices())*2 {
		t.Errorf("WABytes = %d", rep.WABytes)
	}
	if rep.KernelTime <= 0 || rep.TransferTime <= 0 {
		t.Error("missing kernel/transfer accounting")
	}
	if rep.EdgesTraversed == 0 {
		t.Error("no edges traversed")
	}
	if rep.HostKernelWall <= 0 {
		t.Errorf("HostKernelWall = %v, want > 0", rep.HostKernelWall)
	}

	// A multi-source BFS's report splits among its jobs (laneReport): the
	// parts of every additive counter sum to the run's, HostKernelWall
	// included, and RunShared hands out exactly those parts.
	ds, _ := graphgen.ByName("RMAT27")
	big := buildPages(t, ds.MustGenerate(27-13))
	sources := bfsSources(8, big.NumVertices())
	var jobs []SharedJob
	lanes := make([]*kernels.BFS, len(sources))
	for j, src := range sources {
		lanes[j] = kernels.NewBFS(big)
		jobs = append(jobs, SharedJob{Kernel: lanes[j], Source: src})
	}
	ms := kernels.NewMultiBFS(big, lanes, sources)
	whole := mustRun(t, newEngine(t, big, Options{}, 1, 0), ms, sources[0])
	outs, stats := mustRunShared(t, newEngine(t, big, Options{}, 1, 0), jobs)
	var total, before int64
	for j := range lanes {
		_, ls := ms.Lane(whole.State, j)
		total += ls.Pages
	}
	var sum, shared Report
	for j := range lanes {
		st, ls := ms.Lane(whole.State, j)
		for _, r := range []struct{ into, from *Report }{{&sum, ptr(laneReport(whole, st, ls, before, total))}, {&shared, &outs[j].Report}} {
			r.into.HostKernelWall += r.from.HostKernelWall
			r.into.TransferTime += r.from.TransferTime
			r.into.KernelTime += r.from.KernelTime
			r.into.PagesStreamed += r.from.PagesStreamed
			r.into.BytesToGPU += r.from.BytesToGPU
			r.into.CacheHits += r.from.CacheHits
			r.into.EdgesTraversed += r.from.EdgesTraversed
		}
		before += ls.Pages
	}
	want := Report{Metrics: Metrics{HostKernelWall: whole.HostKernelWall, TransferTime: whole.TransferTime, KernelTime: whole.KernelTime,
		PagesStreamed: whole.PagesStreamed, BytesToGPU: whole.BytesToGPU}, CacheHits: whole.CacheHits, EdgesTraversed: whole.EdgesTraversed}
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("the lanes' parts sum to %+v, the run's %+v", sum, want)
	}
	shared.HostKernelWall, want.HostKernelWall = 0, 0 // host time: another run's
	if !reflect.DeepEqual(shared, want) || stats.EdgesTraversed != whole.EdgesTraversed || stats.Elapsed != whole.Elapsed {
		t.Errorf("RunShared's outcomes sum to %+v, the run's %+v (stats %+v)", shared, want, stats)
	}
}

func ptr[T any](v T) *T { return &v }

func TestOptionsValidation(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	if _, err := New(hw.Workstation(1, 0), sp, Options{Streams: 64}); err == nil {
		t.Error("64 streams accepted")
	}
	if _, err := New(hw.MachineSpec{}, sp, Options{}); err == nil {
		t.Error("empty machine accepted")
	}
}

// TestRunRefusesWhatMainMemoryCannotHold: main memory holds the topology of
// an in-memory run or the host page pool of a storage-backed one; one byte
// short of either fails the run with hw.ErrOutOfMemory, and an exact fit
// runs.
func TestRunRefusesWhatMainMemoryCannotHold(t *testing.T) {
	sp := buildPages(t, rmatGraph(t))
	for _, tc := range []struct {
		name string
		ssds int
		want string
	}{
		{"topology", 0, "core: graph does not fit in main memory and no storage is configured: hw: out of main memory: need "},
		{"host pool", 1, "hw: out of main memory: need "},
	} {
		for _, spare := range []int64{-1, 0} {
			spec := hw.Workstation(1, tc.ssds)
			spec.MainMemory = sp.TopologyBytes() + spare
			opts := Options{}
			if tc.ssds > 0 {
				opts.HostPool = newTestPool(t, sp, sp.TopologyBytes())
			}
			e, err := New(spec, sp, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.RunJob(SharedJob{Kernel: kernels.NewBFS(sp)})
			switch {
			case spare < 0 && (!errors.Is(err, hw.ErrOutOfMemory) || !strings.HasPrefix(err.Error(), tc.want)):
				t.Errorf("%s one byte over main memory: %v, want %q...", tc.name, err, tc.want)
			case spare == 0 && err != nil:
				t.Errorf("%s that fits main memory exactly: %v", tc.name, err)
			}
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyP.String() != "Strategy-P" || StrategyS.String() != "Strategy-S" {
		t.Error("Strategy.String wrong")
	}
}

func TestRWRMatchesReferenceAcrossConfigs(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	want := verify.RWR(g, 3, 0.15, 5)
	for _, cfg := range configurations() {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			k := kernels.NewRWR(sp, 0.15, 5)
			rep := mustRun(t, e, k, 3)
			got := k.Ranks(rep.State)
			for v := range want {
				if math.Abs(float64(got[v])-want[v]) > 1e-4*math.Max(want[v], 1e-9)+1e-7 {
					t.Fatalf("vertex %d score = %v, want %v", v, got[v], want[v])
				}
			}
		})
	}
}

// TestScanKernelUpdates pins the scatter kernel's Updates: one iteration of
// PageRank writes along every edge, while RWR's first iteration writes only
// along its source's out-edges, because the kernel skips a vertex with no
// rank to give.
func TestScanKernelUpdates(t *testing.T) {
	sp := buildPages(t, rmatGraph(t))
	for _, cfg := range configurations() {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			if rep := mustRun(t, e, kernels.NewPageRank(sp, 0.85, 1), 0); rep.Updates != int64(sp.NumEdges()) {
				t.Errorf("PageRank Updates = %d, want %d edges", rep.Updates, sp.NumEdges())
			}
			for _, src := range []uint64{0, 3, 77} {
				if rep := mustRun(t, e, kernels.NewRWR(sp, 0.15, 1), src); rep.Updates != int64(sp.DegreeOf(src)) {
					t.Errorf("RWR from %d: Updates = %d, want its degree %d", src, rep.Updates, sp.DegreeOf(src))
				}
			}
		})
	}
}

func TestDegreeDistMatchesGraph(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	for _, cfg := range configurations()[:3] { // in-memory configs suffice
		t.Run(cfg.name, func(t *testing.T) {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			k := kernels.NewDegreeDist(sp)
			rep := mustRun(t, e, k, 0)
			got := k.Degrees(rep.State)
			for v := uint64(0); v < g.NumVertices(); v++ {
				if int(got[v]) != g.Degree(v) {
					t.Fatalf("vertex %d degree = %d, want %d", v, got[v], g.Degree(v))
				}
			}
			h := k.Histogram(rep.State)
			var sum int64
			for _, c := range h {
				sum += c
			}
			if sum != int64(g.NumVertices()) {
				t.Errorf("histogram sums to %d", sum)
			}
		})
	}
}

func TestKCoreMatchesReferenceAcrossConfigs(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	for _, kk := range []int{2, 8} {
		want := verify.KCore(g, kk)
		for _, cfg := range configurations()[:3] {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			kern := kernels.NewKCore(sp, kk)
			rep := mustRun(t, e, kern, 0)
			got := kern.InCore(rep.State)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s k=%d: vertex %d in-core = %v, want %v", cfg.name, kk, v, got[v], want[v])
				}
			}
		}
	}
}

func TestLevelStatsRecorded(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	rep := mustRun(t, newEngine(t, sp, Options{}, 1, 0), kernels.NewBFS(sp), 0)
	if int32(len(rep.LevelPages)) != rep.Levels || len(rep.LevelBytes) != len(rep.LevelPages) {
		t.Fatalf("level stats %d/%d vs %d levels", len(rep.LevelPages), len(rep.LevelBytes), rep.Levels)
	}
	var pages, bytes int64
	for i := range rep.LevelPages {
		pages += rep.LevelPages[i]
		bytes += rep.LevelBytes[i]
	}
	if pages != rep.PagesStreamed {
		t.Errorf("level pages sum %d != total %d", pages, rep.PagesStreamed)
	}
	if bytes != rep.BytesToGPU-rep.WABytes { // WA upload precedes level 0
		t.Errorf("level bytes sum %d != streamed %d", bytes, rep.BytesToGPU-rep.WABytes)
	}
}

func TestEngineMatchesReferenceOnRandomGraphs(t *testing.T) {
	// Property: for random skewed graphs, the engine's BFS equals the
	// reference under a randomly drawn configuration.
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 8; iter++ {
		n := 200 + r.Intn(800)
		var edges []csr.Edge
		for i := 0; i < n*6; i++ {
			src := uint32(r.Intn(n))
			if r.Intn(10) == 0 {
				src = uint32(r.Intn(5)) // hubs
			}
			edges = append(edges, csr.Edge{Src: src, Dst: uint32(r.Intn(n))})
		}
		g := csr.MustFromEdges(n, edges)
		sp := buildPages(t, g)
		src := uint64(r.Intn(n))
		strat := Strategy(r.Intn(2))
		gpus := 1 + r.Intn(2)
		want := verify.BFS(g, uint32(src))
		e := newEngine(t, sp, Options{Strategy: strat, Streams: 1 + r.Intn(32)}, gpus, r.Intn(2))
		k := kernels.NewBFS(sp)
		rep := mustRun(t, e, k, src)
		got := k.Levels(rep.State)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("iter %d (%v, %d gpus): vertex %d = %d, want %d", iter, strat, gpus, v, got[v], want[v])
			}
		}
	}
}

func TestSSSPOnRandomGraphsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for iter := 0; iter < 5; iter++ {
		n := 100 + r.Intn(400)
		var edges []csr.Edge
		for i := 0; i < n*5; i++ {
			edges = append(edges, csr.Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))})
		}
		g := csr.MustFromEdges(n, edges)
		sp := buildPages(t, g)
		src := uint32(r.Intn(n))
		want := verify.SSSP(g, src, kernels.Weight)
		e := newEngine(t, sp, Options{Strategy: Strategy(r.Intn(2))}, 1+r.Intn(2), 0)
		k := kernels.NewSSSP(sp)
		rep := mustRun(t, e, k, uint64(src))
		got := k.Distances(rep.State)
		for v := range want {
			if math.IsInf(want[v], 1) {
				if got[v] != float32(math.MaxFloat32) {
					t.Fatalf("iter %d: vertex %d reachable, want not", iter, v)
				}
				continue
			}
			if float64(got[v]) != want[v] {
				t.Fatalf("iter %d: vertex %d dist %v, want %v", iter, v, got[v], want[v])
			}
		}
	}
}

func TestIsolatedVerticesDontPerturbBFS(t *testing.T) {
	// Metamorphic: appending isolated vertices must not change the levels
	// of existing ones.
	base := rmatGraph(t)
	spBase := buildPages(t, base)
	kBase := kernels.NewBFS(spBase)
	repBase := mustRun(t, newEngine(t, spBase, Options{}, 1, 0), kBase, 0)

	bigger := csr.MustFromEdges(int(base.NumVertices())+500, base.Edges())
	spBig := buildPages(t, bigger)
	kBig := kernels.NewBFS(spBig)
	repBig := mustRun(t, newEngine(t, spBig, Options{}, 1, 0), kBig, 0)

	a, b := kBase.Levels(repBase.State), kBig.Levels(repBig.State)
	for v := 0; v < int(base.NumVertices()); v++ {
		if a[v] != b[v] {
			t.Fatalf("vertex %d level changed %d -> %d after padding", v, a[v], b[v])
		}
	}
	for v := int(base.NumVertices()); v < len(b); v++ {
		if b[v] != -1 {
			t.Fatalf("isolated vertex %d reached (level %d)", v, b[v])
		}
	}
}

func TestRadiusConsistentAcrossConfigs(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	var baseline []int32
	for _, cfg := range configurations()[:3] {
		t.Run(cfg.name, func(t *testing.T) {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			k := kernels.NewRadius(sp, 8, 64)
			rep := mustRun(t, e, k, 0)
			radii := k.Radii(rep.State)
			if baseline == nil {
				baseline = append([]int32(nil), radii...)
				return
			}
			for v := range baseline {
				if radii[v] != baseline[v] {
					t.Fatalf("vertex %d radius %d differs from baseline %d", v, radii[v], baseline[v])
				}
			}
		})
	}
}

func TestRadiusBoundedByEccentricity(t *testing.T) {
	// The sketch can stop growing early (bit collisions) but never grows
	// after the true out-eccentricity.
	g := rmatGraph(t)
	sp := buildPages(t, g)
	k := kernels.NewRadius(sp, 8, 64)
	rep := mustRun(t, newEngine(t, sp, Options{}, 1, 0), k, 0)
	radii := k.Radii(rep.State)
	for v := uint32(0); v < 64; v++ {
		lv := verify.BFS(g, v)
		ecc := int32(0)
		for _, l := range lv {
			if int32(l) > ecc {
				ecc = int32(l)
			}
		}
		if radii[v] > ecc {
			t.Fatalf("vertex %d radius %d exceeds eccentricity %d", v, radii[v], ecc)
		}
	}
}

// TestRadiusNeighborhoodEstimates: the sketches grow exactly while a
// vertex's reachable set does. On a star the hub reaches every spoke at hop
// 1 and a spoke reaches nothing; on a cycle every set keeps growing, so the
// effective diameter is past hop 0.
func TestRadiusNeighborhoodEstimates(t *testing.T) {
	sp := buildPages(t, graphgen.Star(512))
	k := kernels.NewRadius(sp, 16, 8)
	radii := k.Radii(mustRun(t, newEngine(t, sp, Options{}, 1, 0), k, 0).State)
	if radii[0] != 1 {
		t.Errorf("hub radius %d, want 1", radii[0])
	}
	for v, r := range radii[1:] {
		if r != 0 {
			t.Fatalf("spoke %d radius %d, want 0", v+1, r)
		}
	}
	spc := buildPages(t, graphgen.Cycle(256))
	kc := kernels.NewRadius(spc, 8, 512)
	repc := mustRun(t, newEngine(t, spc, Options{}, 1, 0), kc, 0)
	if d := kc.EffectiveDiameter(repc.State, 1.0); d < 1 {
		t.Errorf("effective diameter = %d", d)
	}
}

func TestNeighborhoodMatchesCappedBFS(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	full := verify.BFS(g, 0)
	for _, hops := range []int{1, 2, 3} {
		for _, cfg := range configurations()[:3] {
			e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
			k := kernels.NewNeighborhood(sp, hops)
			rep := mustRun(t, e, k, 0)
			got := k.Levels(rep.State)
			for v := range full {
				want := full[v]
				if int(want) > hops {
					want = -1
				}
				if got[v] != want {
					t.Fatalf("%s hops=%d: vertex %d = %d, want %d", cfg.name, hops, v, got[v], want)
				}
			}
		}
	}
}

func TestNeighborhoodStreamsFewerPagesThanBFS(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	bfs := mustRun(t, newEngine(t, sp, Options{CacheBytes: CacheDisabled}, 1, 0), kernels.NewBFS(sp), 0)
	ball := mustRun(t, newEngine(t, sp, Options{CacheBytes: CacheDisabled}, 1, 0), kernels.NewNeighborhood(sp, 1), 0)
	if ball.PagesStreamed >= bfs.PagesStreamed {
		t.Errorf("1-hop ball streamed %d pages, full BFS %d", ball.PagesStreamed, bfs.PagesStreamed)
	}
}

func TestCrossEdgesMatchesDirectCount(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	pivot := g.NumVertices() / 3
	side := func(v uint64) bool { return v < pivot }
	var want int64
	for v := uint64(0); v < g.NumVertices(); v++ {
		vs := side(v)
		g.Neighbors(v, func(d uint64) {
			if side(d) != vs {
				want++
			}
		})
	}
	for _, cfg := range configurations()[:3] {
		e := newEngine(t, sp, Options{Strategy: cfg.strategy}, cfg.gpus, cfg.ssds)
		k := kernels.NewCrossEdges(sp, side)
		rep := mustRun(t, e, k, 0)
		if got := k.Total(rep.State); got != want {
			t.Fatalf("%s: cross edges = %d, want %d", cfg.name, got, want)
		}
	}
}
