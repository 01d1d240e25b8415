package gts

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/kernels"
	"repro/internal/trace"
	"repro/internal/verify"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Generate("RMAT27", 27-11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateKnownAndUnknown(t *testing.T) {
	g := smallGraph(t)
	if g.NumVertices() != 2048 {
		t.Errorf("V = %d", g.NumVertices())
	}
	if _, err := Generate("NotAGraph", 4); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestPageConfigFor(t *testing.T) {
	if cfg := PageConfigFor("RMAT31", 12); cfg.PIDBytes != 3 || cfg.SlotBytes != 3 {
		t.Errorf("RMAT31 config = %+v, want (3,3)", cfg)
	}
	if cfg := PageConfigFor("Twitter", 12); cfg.PIDBytes != 2 || cfg.SlotBytes != 2 {
		t.Errorf("Twitter config = %+v, want (2,2)", cfg)
	}
	if cfg := PageConfigFor("Twitter", 30); cfg.PageSize != 4096 {
		t.Errorf("page size floor = %d", cfg.PageSize)
	}
}

// TestSourceOutOfRangeIsAnError: every algorithm that starts from a vertex
// refuses one the graph does not have, naming the vertex count, where the
// kernels' Init used to index past their vectors.
func TestSourceOutOfRangeIsAnError(t *testing.T) {
	g := smallGraph(t)
	bad := g.NumVertices() + 5
	sys, err := NewSystem(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"BFS":  func() error { _, err := sys.BFS(bad); return err },
		"SSSP": func() error { _, err := sys.SSSP(bad); return err },
		"BC":   func() error { _, err := sys.BC(bad); return err },
		"RWR":  func() error { _, err := sys.RWR(bad, 0.15, 3); return err },
	} {
		err := run()
		if !errors.Is(err, ErrSourceOutOfRange) || !strings.Contains(err.Error(), "2048 vertices") {
			t.Errorf("%s(%d): err = %v, want ErrSourceOutOfRange naming 2048 vertices", name, bad, err)
		}
	}
	if _, err := sys.BFS(bad - 6); err != nil {
		t.Errorf("BFS from the last vertex: %v", err)
	}
}

// TestRunKernelRefusesAKernelThatNeitherScansNorPlans: a Kernel that is
// neither a ScanKernel nor a traversal planning its own levels names no
// pages to run, so RunKernel refuses it before any work — not one of its
// methods is called.
func TestRunKernelRefusesAKernelThatNeitherScansNorPlans(t *testing.T) {
	sys, err := NewSystem(smallGraph(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := &unplannedKernel{}
	if _, _, err := sys.RunKernel(k, 0); err == nil || !strings.Contains(err.Error(), "neither scans") {
		t.Errorf("err = %v, want a refusal naming a kernel that neither scans nor plans", err)
	}
	if k.calls != 0 {
		t.Errorf("the refused kernel was called %d times, want none", k.calls)
	}
}

// unplannedKernel is a bare Kernel that counts the calls made into it.
type unplannedKernel struct{ calls int }

func (k *unplannedKernel) NewState() KernelState        { k.calls++; return nil }
func (k *unplannedKernel) Init(KernelState, uint64)     { k.calls++ }
func (k *unplannedKernel) Run(*KernelArgs) KernelResult { k.calls++; return KernelResult{} }
func (k *unplannedKernel) MergeStates([]KernelState)    { k.calls++ }

func TestEndToEndAllAlgorithms(t *testing.T) {
	d, _ := graphgen.ByName("RMAT27")
	raw := d.MustGenerate(27 - 11)
	g := smallGraph(t)
	sys, err := NewSystem(g, Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}

	bfs, err := sys.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	wantLv := verify.BFS(raw, 0)
	for v := range wantLv {
		if bfs.Levels[v] != wantLv[v] {
			t.Fatalf("BFS vertex %d mismatch", v)
		}
	}
	if bfs.Elapsed <= 0 || bfs.MTEPS <= 0 {
		t.Error("BFS metrics missing")
	}

	pr, err := sys.PageRank(0.85, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantPR := verify.PageRank(raw, 0.85, 3)
	for v := range wantPR {
		if math.Abs(float64(pr.Ranks[v])-wantPR[v]) > 1e-5 {
			t.Fatalf("PR vertex %d mismatch", v)
		}
	}

	sssp, err := sys.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	wantD := verify.SSSP(raw, 0, kernels.Weight)
	for v := range wantD {
		if !math.IsInf(wantD[v], 1) && float64(sssp.Dist[v]) != wantD[v] {
			t.Fatalf("SSSP vertex %d mismatch", v)
		}
	}

	cc, err := sys.CC()
	if err != nil {
		t.Fatal(err)
	}
	wantCC := verify.WCC(raw)
	for v := range wantCC {
		if cc.Labels[v] != wantCC[v] {
			t.Fatalf("CC vertex %d mismatch", v)
		}
	}

	bc, err := sys.BC(0)
	if err != nil {
		t.Fatal(err)
	}
	wantBC := verify.BC(raw, 0)
	for v := range wantBC {
		if math.Abs(bc.Scores[v]-wantBC[v]) > 1e-6 {
			t.Fatalf("BC vertex %d mismatch", v)
		}
	}
}

func TestStorageConfigs(t *testing.T) {
	g := smallGraph(t)
	for _, st := range []Storage{InMemory, SSDs, HDDs} {
		sys, err := NewSystem(g, Config{Storage: st, Devices: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.PageRank(0.85, 1); err != nil {
			t.Fatalf("storage %d: %v", st, err)
		}
	}
}

// TestZeroConfigStorageRunUsesHostPool: with nothing configured, a
// storage-backed run still streams through the one host page buffer — a
// private pool built for the run — and its metrics and trace say so.
func TestZeroConfigStorageRunUsesHostPool(t *testing.T) {
	g := smallGraph(t)
	rec := trace.New()
	sys, err := NewSystem(g, Config{Storage: SSDs, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if sys.HostPool() != nil {
		t.Fatal("zero Config built a System-lifetime pool")
	}
	res, err := sys.PageRank(0.85, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every storage read is a pin that missed: a load, or — this graph's 20%
	// is fewer frames than the run has streams — a bypass.
	if res.PoolLoads == 0 || (res.PoolLoads+res.PoolWaits)*int64(g.Config().PageSize) != res.StorageBytes {
		t.Errorf("PoolLoads = %d, PoolWaits = %d with %d storage bytes", res.PoolLoads, res.PoolWaits, res.StorageBytes)
	}
	if want := float64(res.PoolHits) / float64(res.PoolHits+res.PoolLoads+res.PoolWaits); res.BufferHitRate != want {
		t.Errorf("BufferHitRate = %v, want the run's own pin outcomes %v", res.BufferHitRate, want)
	}
	var marks int64
	for _, s := range rec.Spans() {
		if s.Kind == trace.PoolLoad {
			marks++
		}
	}
	if marks != res.PoolLoads {
		t.Errorf("trace carries %d poolload marks, metrics report %d loads", marks, res.PoolLoads)
	}
}

func TestScaledHardware(t *testing.T) {
	g := smallGraph(t)
	sys, err := NewSystem(g, Config{ScaleFactor: 1 << 12, Streams: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.BFS(0); err != nil {
		t.Fatal(err)
	}
}

func TestTraceThroughAPI(t *testing.T) {
	g := smallGraph(t)
	rec := trace.New()
	sys, err := NewSystem(g, Config{Trace: rec, Streams: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PageRank(0.85, 1); err != nil {
		t.Fatal(err)
	}
	if rec.Total(trace.Kernel) == 0 {
		t.Error("no kernel spans traced")
	}
}

func TestSaveAndLoadGraph(t *testing.T) {
	g := smallGraph(t)
	path := filepath.Join(t.TempDir(), "g.gts")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Error("round trip mismatch")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	g := smallGraph(t)
	if _, err := NewSystem(g, Config{Streams: 99}); err == nil {
		t.Error("99 streams accepted")
	}
}

// TestNewSystemRefusesWhatCannotRun: a machine no run could use is
// ErrInvalid at load — a device count past MaxDevices (which used to build
// a model of every one), a negative one (which used to build an SSD machine
// without devices), or a host pool larger than main memory (which used to
// load, then fail every run out of main memory) — and the largest legal
// values still load.
func TestNewSystemRefusesWhatCannotRun(t *testing.T) {
	g := smallGraph(t)
	const scale = 1 << 10
	mainMemory := Config{ScaleFactor: scale}.machineSpec().MainMemory
	oversized, err := NewHostPool(g, Config{PoolBytes: 2 * mainMemory})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{GPUs: MaxDevices + 1},
		{GPUs: -1},
		{Storage: SSDs, Devices: -1},
		{Storage: HDDs, Devices: MaxDevices + 1},
		{Storage: SSDs, PoolBytes: 1 << 40},
		{Storage: SSDs, ScaleFactor: scale, PoolBytes: mainMemory + int64(g.Config().PageSize)},
		{Storage: HDDs, ScaleFactor: scale, HostPool: oversized},
	} {
		if _, err := NewSystem(g, cfg); !errors.Is(err, ErrInvalid) {
			t.Errorf("NewSystem(%+v) = %v, want ErrInvalid", cfg, err)
		}
	}
	for _, cfg := range []Config{
		{GPUs: MaxDevices, Streams: 1},
		{Storage: SSDs, Devices: MaxDevices},
		{Storage: SSDs, ScaleFactor: scale, PoolBytes: mainMemory},
		{PoolBytes: 1 << 40}, // in memory: PoolBytes is ignored
	} {
		if _, err := NewSystem(g, cfg); err != nil {
			t.Errorf("NewSystem(%+v) = %v, want a System", cfg, err)
		}
	}
}

func TestParseStorage(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Storage
		ok   bool
	}{
		{"", InMemory, true},
		{"mem", InMemory, true},
		{"SSD", SSDs, true},
		{"hdd", HDDs, true},
		{"tape", InMemory, false},
		{"ssds", InMemory, false},
	} {
		got, err := ParseStorage(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseStorage(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestSystemSerializesRuns exercises the System concurrency guard: many
// goroutines hammering one System must produce exactly the sequential
// results (run under -race via `make test-race`). The first run warms the
// device; every run after it starts from the same settled device, so the
// concurrent runs must match the second, warm, sequential one.
func TestSystemSerializesRuns(t *testing.T) {
	g := smallGraph(t)
	sys, err := NewSystem(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.BFS(0); err != nil {
		t.Fatal(err)
	}
	want, err := sys.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sys.BFS(0)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Levels, want.Levels) || got.Elapsed != want.Elapsed {
				t.Error("concurrent BFS on one System diverged from sequential result")
			}
		}()
	}
	wg.Wait()
}

func TestOpenSpecs(t *testing.T) {
	// Dataset with explicit shrink.
	g, err := Open("RMAT27@16")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2048 {
		t.Errorf("RMAT27@16: V = %d, want 2048", g.NumVertices())
	}
	// File round-trip.
	path := filepath.Join(t.TempDir(), "g.gts")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Error("file spec did not round-trip")
	}
	// Errors.
	for _, bad := range []string{"", "RMAT27@-1", "RMAT27@x", "NotAGraph", "missing.gts"} {
		if _, err := Open(bad); err == nil {
			t.Errorf("Open(%q) succeeded, want error", bad)
		}
	}
	// A dataset name without shrink must use DefaultShrink; RMAT26@12 is
	// small enough to generate here.
	if _, err := os.Stat("RMAT26"); err == nil {
		t.Skip("a file named RMAT26 shadows the dataset")
	}
	g3, err := Open("RMAT26")
	if err != nil {
		t.Fatal(err)
	}
	g4, err := Generate("RMAT26", DefaultShrink)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumVertices() != g4.NumVertices() {
		t.Errorf("Open default shrink: V = %d, want %d", g3.NumVertices(), g4.NumVertices())
	}
}

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Strategy
		ok   bool
	}{
		{"", StrategyP, true},
		{"p", StrategyP, true},
		{"P", StrategyP, true},
		{"s", StrategyS, true},
		{"S", StrategyS, true},
		{"q", StrategyP, false},
		{"performance", StrategyP, false},
		{" s", StrategyP, false},
	} {
		got, err := ParseStrategy(tc.in)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestExtensionAlgorithmsThroughAPI(t *testing.T) {
	d, _ := graphgen.ByName("RMAT27")
	raw := d.MustGenerate(27 - 11)
	g := smallGraph(t)
	sys, err := NewSystem(g, Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}

	rwr, err := sys.RWR(7, 0.15, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantRWR := verify.RWR(raw, 7, 0.15, 5)
	for v := range wantRWR {
		if math.Abs(float64(rwr.Scores[v])-wantRWR[v]) > 1e-5 {
			t.Fatalf("RWR vertex %d = %v, want %v", v, rwr.Scores[v], wantRWR[v])
		}
	}

	deg, err := sys.DegreeDistribution()
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < raw.NumVertices(); v++ {
		if int(deg.Degrees[v]) != raw.Degree(v) {
			t.Fatalf("degree vertex %d = %d, want %d", v, deg.Degrees[v], raw.Degree(v))
		}
	}
	var sum int64
	for _, c := range deg.Histogram {
		sum += c
	}
	if sum != int64(raw.NumVertices()) {
		t.Errorf("histogram sums to %d", sum)
	}

	kc, err := sys.KCore(4)
	if err != nil {
		t.Fatal(err)
	}
	wantKC := verify.KCore(raw, 4)
	for v := range wantKC {
		if kc.InCore[v] != wantKC[v] {
			t.Fatalf("k-core vertex %d = %v, want %v", v, kc.InCore[v], wantKC[v])
		}
	}
}

// TestNeighborhoodRefusesHopsOutOfRange: a hop count below 1, or past the
// engine's kernels.MaxLevels depth bound, is ErrInvalid rather than a 1-hop
// ball; the largest cap, 32000, gives the BFS levels.
func TestNeighborhoodRefusesHopsOutOfRange(t *testing.T) {
	sys, err := NewSystem(smallGraph(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, hops := range []int{0, -1, kernels.MaxLevels + 1, 40000} {
		if res, err := sys.Neighborhood(0, hops); !errors.Is(err, ErrInvalid) {
			t.Errorf("Neighborhood(0, %d) = %v, %v; want ErrInvalid", hops, res != nil, err)
		}
	}
	capped, err := sys.Neighborhood(0, kernels.MaxLevels)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := sys.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(capped.Hops, bfs.Levels) {
		t.Error("a 32000-hop ball differs from the BFS levels")
	}
}

// TestIterationsBoundedByMaxLevels: pagerank and rwr take at most
// kernels.MaxLevels iterations, ball that many hops and radius that maxhops,
// the superstep bound the engine enforces. One more is ErrInvalid at
// normalization, before any work; it used to run until the engine's depth
// guard failed it. A scan of exactly MaxLevels iterations
// finishes.
func TestIterationsBoundedByMaxLevels(t *testing.T) {
	for name, at := range map[string]func(n int) Params{
		"pagerank": func(n int) Params { return Params{Iterations: n} },
		"rwr":      func(n int) Params { return Params{Iterations: n} },
		"ball":     func(n int) Params { return Params{Hops: n} },
		"radius":   func(n int) Params { return Params{MaxHops: n} },
	} {
		a, _ := LookupAlgorithm(name)
		if _, err := a.Normalize(at(kernels.MaxLevels)); err != nil {
			t.Errorf("%s at %d: %v", name, kernels.MaxLevels, err)
		}
		if _, err := a.Normalize(at(kernels.MaxLevels + 1)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s at %d: err = %v, want ErrInvalid", name, kernels.MaxLevels+1, err)
		}
	}
	g, err := BuildGraph(graphgen.Path(4), ScaledPageConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.PageRank(0.85, kernels.MaxLevels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != kernels.MaxLevels {
		t.Errorf("PageRank(0.85, %d) ran %d iterations", kernels.MaxLevels, res.Levels)
	}
}

// TestTypedCallsRunWhatARequestWould: a typed method takes exactly the
// parameters gtsd serves. One the table refuses (33 sketches, a restart or
// damping outside (0, 1)) or would replace with its default (a zero count)
// is ErrInvalid, where each of these used to run. Run, a request, fills the
// same zeros with the defaults.
func TestTypedCallsRunWhatARequestWould(t *testing.T) {
	sys, err := NewSystem(smallGraph(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"Radius(33, 8)":     func() error { _, err := sys.Radius(33, 8); return err },
		"Radius(8, 0)":      func() error { _, err := sys.Radius(8, 0); return err },
		"RWR(0, 1.5, 10)":   func() error { _, err := sys.RWR(0, 1.5, 10); return err },
		"RWR(0, 0, 10)":     func() error { _, err := sys.RWR(0, 0, 10); return err },
		"PageRank(1, 10)":   func() error { _, err := sys.PageRank(1, 10); return err },
		"PageRank(0.85, 0)": func() error { _, err := sys.PageRank(0.85, 0); return err },
		"KCore(0)":          func() error { _, err := sys.KCore(0); return err },
	} {
		if err := call(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
	if _, err := sys.Run("dfs", Params{}); !errors.Is(err, ErrInvalid) {
		t.Errorf(`Run("dfs"): err = %v, want ErrInvalid`, err)
	}
	byDefault, err := sys.Run("kcore", Params{Source: 7})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := sys.KCore(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byDefault.(*KCoreResult).InCore, explicit.InCore) {
		t.Error(`Run("kcore", {}) differs from KCore(3)`)
	}
}

func TestBallAndCrossEdgesAndRadiusAPI(t *testing.T) {
	g := smallGraph(t)
	sys, err := NewSystem(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ball, err := sys.Neighborhood(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	for _, h := range ball.Hops {
		if h >= 0 {
			if h > 2 {
				t.Fatalf("hop %d beyond cap", h)
			}
			inside++
		}
	}
	if inside < 2 {
		t.Error("ball contains almost nothing")
	}
	ce, err := sys.CrossEdges(func(v uint64) bool { return v%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if ce.Total <= 0 || ce.Total > int64(g.NumEdges()) {
		t.Errorf("cross edges = %d", ce.Total)
	}
	rad, err := sys.Radius(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rad.Radii) != int(g.NumVertices()) || rad.EffectiveDiameter < 1 {
		t.Errorf("radius result malformed: %d radii, diameter %d", len(rad.Radii), rad.EffectiveDiameter)
	}
}
