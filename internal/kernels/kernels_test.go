package kernels

import (
	"testing"
	"testing/quick"

	"repro/internal/graphgen"
	"repro/internal/slottedpage"
)

func TestClassAndTechniqueStrings(t *testing.T) {
	if EdgeCentric.String() != "edge-centric" || VertexCentric.String() != "vertex-centric" || Hybrid.String() != "hybrid" {
		t.Error("Technique strings wrong")
	}
}

func TestLaneAccEdgeCentric(t *testing.T) {
	var l laneAcc
	l.add(1)  // 1 edge, 32 lanes
	l.add(33) // 33 edges, 64 lanes
	if l.edges != 34 || l.ecLanes != 96 {
		t.Fatalf("edges=%d ecLanes=%d", l.edges, l.ecLanes)
	}
	// eff = edges + 0.25*(lanes-edges) = 34 + 0.25*62 = 49.5
	if got := l.effectiveLanes(EdgeCentric); got != 49.5 {
		t.Errorf("effectiveLanes = %v, want 49.5", got)
	}
}

func TestLaneAccVertexCentricWindows(t *testing.T) {
	var l laneAcc
	// 32 vertices of degree 1 plus one window with a degree-100 hub.
	for i := 0; i < 32; i++ {
		l.add(1)
	}
	l.add(100) // partial second window
	// First window: 32*1 lanes; partial window flush: 32*100.
	want := float64(132) + vertexCentricWaste*float64(32+3200-132)
	if got := l.effectiveLanes(VertexCentric); got != want {
		t.Errorf("effectiveLanes = %v, want %v", got, want)
	}
}

func TestHybridPicksCheaper(t *testing.T) {
	f := func(degs []uint8) bool {
		var l laneAcc
		for _, d := range degs {
			l.add(int(d))
		}
		h := l.effectiveLanes(Hybrid)
		e := l.effectiveLanes(EdgeCentric)
		v := l.effectiveLanes(VertexCentric)
		min := e
		if v < min {
			min = v
		}
		return h == min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVertexCentricSuffersOnSkew(t *testing.T) {
	// A window holding one hub and 31 leaves: vertex-centric stalls the
	// whole warp on the hub; edge-centric does not.
	var l laneAcc
	l.add(1000)
	for i := 0; i < 31; i++ {
		l.add(1)
	}
	if l.effectiveLanes(VertexCentric) <= l.effectiveLanes(EdgeCentric) {
		t.Error("vertex-centric not penalized on skewed window")
	}
}

func TestEdgeCentricSuffersOnVerySparse(t *testing.T) {
	// Uniform degree 2: edge-centric wastes 30/32 lanes per vertex;
	// vertex-centric windows are perfectly balanced.
	var l laneAcc
	for i := 0; i < 64; i++ {
		l.add(2)
	}
	if l.effectiveLanes(EdgeCentric) <= l.effectiveLanes(VertexCentric) {
		t.Error("edge-centric not penalized on uniform sparse page")
	}
}

func TestWeightDeterministicAndInRange(t *testing.T) {
	f := func(u, v uint32) bool {
		w := Weight(uint64(u), uint64(v))
		return w == Weight(uint64(u), uint64(v)) && w >= 1 && w <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Weight(1, 2) == Weight(2, 1) && Weight(3, 4) == Weight(4, 3) && Weight(5, 6) == Weight(6, 5) {
		t.Error("weights suspiciously symmetric")
	}
}

// TestWeightMatchesUnsignedConversion pins Weight to the expression it
// replaced, float32(h%16 + 1) over the uint64 hash, on a sweep of small
// and large (u, v) pairs: the weights, and every SSSP distance, are the same.
func TestWeightMatchesUnsignedConversion(t *testing.T) {
	old := func(u, v uint64) float32 {
		h := u*0x9E3779B97F4A7C15 + v*0xBF58476D1CE4E5B9
		h ^= h >> 31
		return float32(h%16 + 1)
	}
	check := func(u, v uint64) {
		if got, want := Weight(u, v), old(u, v); got != want {
			t.Fatalf("Weight(%d, %d) = %v, want %v", u, v, got, want)
		}
	}
	for u := uint64(0); u < 512; u++ {
		for v := uint64(0); v < 512; v++ {
			check(u, v)
			check(u<<32|v, v<<40|u)
		}
	}
	if err := quick.Check(func(u, v uint64) bool { return Weight(u, v) == old(u, v) }, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

// buildTestGraph packs a small RMAT graph into pages for state-size tests.
func buildTestGraph(t *testing.T) *slottedpage.Graph {
	t.Helper()
	d, _ := graphgen.ByName("RMAT27")
	g := d.MustGenerate(27 - 10)
	sp, err := slottedpage.Build(g, slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestWAFootprintsMatchTable4(t *testing.T) {
	// Paper Table 4's per-vertex WA: BFS 2 B, PageRank 4 B, CC 8 B. CC
	// keeps 4 B here, one label vector lowered in place (EXPERIMENTS.md,
	// Known divergence 12).
	sp := buildTestGraph(t)
	v := int64(sp.NumVertices())
	cases := []struct {
		k    Kernel
		perV int64
	}{
		{NewBFS(sp), 2},
		{NewPageRank(sp, 0.85, 10), 4},
		{NewCC(sp), 4},
	}
	for _, tc := range cases {
		if got := tc.k.NewState().WABytes(); got != v*tc.perV {
			t.Errorf("%T WABytes = %d, want %d", tc.k, got, v*tc.perV)
		}
	}
	// SSSP keeps two frontier bits beside dist: 4 B + 2 bits, each set
	// rounded up to whole 64-bit words.
	if got, want := NewSSSP(sp).NewState().WABytes(), v*4+2*((v+63)/64)*8; got != want {
		t.Errorf("SSSP WABytes = %d, want %d", got, want)
	}
}

func TestStateCloneIndependent(t *testing.T) {
	sp := buildTestGraph(t)
	for _, k := range []Kernel{NewBFS(sp), NewPageRank(sp, 0.85, 1), NewSSSP(sp), NewCC(sp), NewBC(sp)} {
		st := k.NewState()
		k.Init(st, 0)
		clone := st.Clone()
		k.Init(st, 1) // mutate original
		// Re-initializing from a different source must not affect the clone.
		if clone.WABytes() != st.WABytes() {
			t.Errorf("%T: clone size changed", k)
		}
	}
}

// TestKernelClassesAndRA: a kernel's class (§3.3) is whether it is a
// ScanKernel, and the engine runs a traversal that had an EndIteration as a
// full scan; the RA vector is the optional RAPerVertex hook.
func TestKernelClassesAndRA(t *testing.T) {
	sp := buildTestGraph(t)
	side := func(v uint64) bool { return v%2 == 0 }
	for _, k := range []Kernel{NewBFS(sp), NewNeighborhood(sp, 2), NewDirBFS(sp), NewSSSP(sp), NewBC(sp)} {
		if _, ok := k.(ScanKernel); ok {
			t.Errorf("%T: a traversal must not be a ScanKernel", k)
		}
	}
	for _, k := range []Kernel{NewPageRank(sp, 0.85, 1), NewCC(sp), NewRWR(sp, 0.15, 1), NewKCore(sp, 3), NewRadius(sp, 4, 4), NewDegreeDist(sp), NewCrossEdges(sp, side)} {
		if _, ok := k.(ScanKernel); !ok {
			t.Errorf("%T: a full scan must be a ScanKernel", k)
		}
	}
	if RAPerVertex(NewPageRank(sp, 0.85, 1)) != 4 || RAPerVertex(NewRWR(sp, 0.15, 1)) != 4 {
		t.Error("PageRank and RWR stream 4 bytes of their previous vector per vertex")
	}
	if RAPerVertex(NewBFS(sp)) != 0 {
		t.Error("BFS has no RA vector")
	}
}

func TestLargeVertexDegrees(t *testing.T) {
	sp := buildTestGraph(t)
	m := lpDegrees(sp)
	for v, d := range m {
		if got := sp.DegreeOf(v); got != d {
			t.Errorf("LP vertex %d degree %d, want %d", v, d, got)
		}
	}
}

// TestKernelPanicsOnBadPageID: a page kernel must not turn an adjacency
// entry naming a page the graph does not have into some vertex — it panics,
// as the per-entry RVT index always did (Graph.Validate reports the same
// damage as ErrInvalidPage before a kernel ever sees it).
func TestKernelPanicsOnBadPageID(t *testing.T) {
	_, sp := driverGraph(t)
	cfg, dec, pid := sp.Config(), sp.Decoder(), sp.SPIDs()[0]
	buf := append([]byte(nil), sp.PageBytes(pid)...)
	slot, pos, deg := 0, 0, 0
	for ; deg == 0; slot++ { // the first vertex of the page with an out-edge
		pos, _, deg = dec.Record(buf, slot)
	}
	source := dec.StartVID(pid) + uint64(slot-1)
	buf[pos], buf[pos+1] = byte(sp.NumPages()), byte(sp.NumPages()>>8) // ADJ_PID := NumPages, one past the last
	k := NewBFS(sp)
	st := k.NewState()
	k.Init(st, source)
	a := &Args{Graph: sp, PID: pid, Page: slottedpage.NewPage(buf, &cfg), State: st, OwnedHi: sp.NumVertices()}
	defer func() {
		if recover() == nil {
			t.Fatal("BFS expanded an entry naming a page the graph does not have")
		}
	}()
	k.Run(a)
}
