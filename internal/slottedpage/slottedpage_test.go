package slottedpage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

// adjSource is an in-memory Source for tests.
type adjSource struct{ adj [][]uint64 }

func (s adjSource) NumVertices() uint64 { return uint64(len(s.adj)) }
func (s adjSource) NumEdges() uint64 {
	var n uint64
	for _, a := range s.adj {
		n += uint64(len(a))
	}
	return n
}
func (s adjSource) Degree(v uint64) int { return len(s.adj[v]) }
func (s adjSource) Neighbors(v uint64, fn func(uint64)) {
	for _, d := range s.adj[v] {
		fn(d)
	}
}

// tinyConfig keeps pages small so tests exercise SP/LP splitting.
func tinyConfig() Config { return ScaledConfig(2, 2, 256) }

func TestTable2Configurations(t *testing.T) {
	// Paper Table 2: three configurations of a 6-byte physical ID.
	tests := []struct {
		cfg          Config
		maxPages     uint64
		maxSlots     uint64
		maxPageBytes uint64
	}{
		{Config24(), 1 << 16, 1 << 32, (1 << 32) * 20}, // 64 K pages, 4 B slots, 80 GB
		{Config33(), 1 << 24, 1 << 24, (1 << 24) * 20}, // 16 M pages, 16 M slots, 320 MB
		{Config42(), 1 << 32, 1 << 16, (1 << 16) * 20}, // 4 B pages, 64 K slots, 1.25 MB
	}
	for _, tc := range tests {
		if got := tc.cfg.MaxPages(); got != tc.maxPages {
			t.Errorf("(p=%d,q=%d) MaxPages = %d, want %d", tc.cfg.PIDBytes, tc.cfg.SlotBytes, got, tc.maxPages)
		}
		if got := tc.cfg.MaxSlotNumber(); got != tc.maxSlots {
			t.Errorf("(p=%d,q=%d) MaxSlotNumber = %d, want %d", tc.cfg.PIDBytes, tc.cfg.SlotBytes, got, tc.maxSlots)
		}
		if got := tc.cfg.MaxTheoreticalPageSize(); got != tc.maxPageBytes {
			t.Errorf("(p=%d,q=%d) MaxTheoreticalPageSize = %d, want %d", tc.cfg.PIDBytes, tc.cfg.SlotBytes, got, tc.maxPageBytes)
		}
	}
}

// TestMaxAddressableVerticesSaturates: pages × slots is 2^(8(p+q)), which
// wraps to 0 (or to a small number) in a uint64 once p+q reaches 8 bytes;
// Build and Mutable's vertex growth compare vertex counts against it, so it
// must saturate the way MaxPages and MaxSlotNumber do.
func TestMaxAddressableVerticesSaturates(t *testing.T) {
	for _, tc := range []struct {
		p, q int
		want uint64
	}{
		{2, 2, 1 << 32},
		{3, 3, 1 << 48},
		{4, 3, 1 << 56},
		{4, 4, ^uint64(0)}, // 2^64: wrapped to 0
		{5, 4, ^uint64(0)},
		{8, 1, ^uint64(0)}, // (2^64-1)·2^8: wrapped to 2^64-256
		{8, 8, ^uint64(0)}, // (2^64-1)²: wrapped to 1
	} {
		cfg := ScaledConfig(tc.p, tc.q, 512)
		if got := cfg.MaxAddressableVertices(); got != tc.want {
			t.Errorf("(p=%d,q=%d) MaxAddressableVertices = %d, want %d", tc.p, tc.q, got, tc.want)
		}
	}
	// What the overflow broke: a (4,4) graph could not be built at all, and
	// a mutable one could not grow by a single vertex.
	g, err := Build(adjSource{adj: [][]uint64{{1}, {0}}}, ScaledConfig(4, 4, 512))
	if err != nil {
		t.Fatalf("building a 2-vertex (4,4) graph: %v", err)
	}
	if _, err := NewMutable(g).ApplyBatch([]EdgeOp{{Src: 2, Dst: 0}}); err != nil {
		t.Fatalf("growing a (4,4) graph to vertex 2: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config22()
	if err := good.Validate(); err != nil {
		t.Errorf("Config22 invalid: %v", err)
	}
	bad := []Config{
		{PageSize: 16, PIDBytes: 2, SlotBytes: 2, VIDBytes: 6, OffBytes: 4, SizeBytes: 4},
		{PageSize: 1 << 20, PIDBytes: 0, SlotBytes: 2, VIDBytes: 6, OffBytes: 4, SizeBytes: 4},
		{PageSize: 1 << 20, PIDBytes: 2, SlotBytes: 9, VIDBytes: 6, OffBytes: 4, SizeBytes: 4},
		{PageSize: 1 << 20, PIDBytes: 2, SlotBytes: 2, VIDBytes: 0, OffBytes: 4, SizeBytes: 4},
		{PageSize: 1 << 20, PIDBytes: 2, SlotBytes: 2, VIDBytes: 6, OffBytes: 1, SizeBytes: 4},
		{PageSize: 1 << 20, PIDBytes: 2, SlotBytes: 2, VIDBytes: 6, OffBytes: 4, SizeBytes: 1},
		{PageSize: 1 << 20, PIDBytes: 2, SlotBytes: 2, VIDBytes: 6, OffBytes: 2, SizeBytes: 4}, // 1 MB page, 2-byte OFF
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

// TestPutGetUintRoundTrip also holds the fixed-width loads and stores to the
// byte loop: what putUint wrote, getUintGeneric must read back.
func TestPutGetUintRoundTrip(t *testing.T) {
	f := func(v uint64, w uint8) bool {
		width := int(w%8) + 1
		v &= maxUint(width)
		buf := make([]byte, 8)
		putUint(buf, width, v)
		return getUint(buf, width) == v && getUintGeneric(buf, width) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPutUintOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overflow did not panic")
		}
	}()
	putUint(make([]byte, 2), 2, 1<<17)
}

// figure1Graph mirrors the paper's Figure 1: v0..v2 low degree, v3 high
// degree (fans out to v4..v99-style neighbors), forcing an LP run.
func figure1Graph(highDeg int) adjSource {
	adj := make([][]uint64, 4+uint64(highDeg))
	adj[0] = []uint64{1, 2}
	adj[1] = []uint64{0, 2}
	adj[2] = []uint64{0, 1, 3}
	big := make([]uint64, highDeg)
	for i := range big {
		big[i] = uint64(4 + i)
	}
	adj[3] = big
	return adjSource{adj: adj}
}

func TestBuildFigure1(t *testing.T) {
	src := figure1Graph(100)
	g, err := Build(src, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != src.NumVertices() || g.NumEdges() != src.NumEdges() {
		t.Fatalf("counts: V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if g.NumLP() == 0 {
		t.Fatal("expected LP pages for the high-degree vertex")
	}
	// v0..v2 share the first SP.
	if h := g.HomeOf(0); h.PID != 0 || h.Slot != 0 {
		t.Errorf("HomeOf(0) = %+v", h)
	}
	if h := g.HomeOf(2); h.PID != 0 || h.Slot != 2 {
		t.Errorf("HomeOf(2) = %+v", h)
	}
	// v3's home is the first page of its LP run, slot 0.
	h3 := g.HomeOf(3)
	if g.Kind(h3.PID) != LargePage || h3.Slot != 0 {
		t.Errorf("HomeOf(3) = %+v kind %v", h3, g.Kind(h3.PID))
	}
	if e := g.RVT(h3.PID); e.StartVID != 3 || e.LPSeq != 0 {
		t.Errorf("RVT(first LP) = %+v", e)
	}
	// RID->VID translation.
	if got := g.VIDOf(RID{PID: 0, Slot: 2}); got != 2 {
		t.Errorf("VIDOf(SP0 slot2) = %d, want 2", got)
	}
	if got := g.VIDOf(h3); got != 3 {
		t.Errorf("VIDOf(v3 home) = %d, want 3", got)
	}
	checkRoundTrip(t, g, src)
}

// checkRoundTrip asserts the page-decoded adjacency equals the source.
func checkRoundTrip(t *testing.T, g *Graph, src adjSource) {
	t.Helper()
	for v := uint64(0); v < src.NumVertices(); v++ {
		var got []uint64
		g.NeighborsOf(v, func(d uint64) { got = append(got, d) })
		want := src.adj[v]
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %d adjacency = %v, want %v", v, got, want)
		}
		if g.DegreeOf(v) != len(want) {
			t.Fatalf("DegreeOf(%d) = %d, want %d", v, g.DegreeOf(v), len(want))
		}
	}
}

func TestBuildIsolatedVertices(t *testing.T) {
	src := adjSource{adj: make([][]uint64, 100)} // all degree 0
	src.adj[50] = []uint64{0, 99}
	g, err := Build(src, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLP() != 0 {
		t.Errorf("NumLP = %d, want 0", g.NumLP())
	}
	checkRoundTrip(t, g, src)
}

func TestBuildVIDsConsecutivePerPage(t *testing.T) {
	src := randomGraph(rand.New(rand.NewSource(7)), 300, 8, 60)
	g, err := Build(src, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < g.NumPages(); pid++ {
		pg := g.Page(PageID(pid))
		start, count := g.VertexRange(PageID(pid))
		if g.Kind(PageID(pid)) == LargePage {
			if pg.NumSlots() != 1 {
				t.Fatalf("LP %d has %d slots", pid, pg.NumSlots())
			}
			continue
		}
		if uint64(pg.NumSlots()) != count {
			t.Fatalf("page %d slots %d != range count %d", pid, pg.NumSlots(), count)
		}
		for s := 0; s < pg.NumSlots(); s++ {
			vid, _ := pg.Slot(s)
			if vid != start+uint64(s) {
				t.Fatalf("page %d slot %d vid %d, want %d", pid, s, vid, start+uint64(s))
			}
		}
	}
}

// randomGraph produces a graph where most vertices have degree up to
// maxDeg but a few heavy hitters have degree up to heavyDeg.
func randomGraph(r *rand.Rand, n, maxDeg, heavyDeg int) adjSource {
	adj := make([][]uint64, n)
	for v := range adj {
		d := r.Intn(maxDeg + 1)
		if r.Intn(20) == 0 {
			d = heavyDeg
		}
		for i := 0; i < d; i++ {
			adj[v] = append(adj[v], uint64(r.Intn(n)))
		}
	}
	return adjSource{adj: adj}
}

func TestBuildRandomRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 25; iter++ {
		src := randomGraph(r, 50+r.Intn(400), 10, 80)
		g, err := Build(src, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, g, src)
	}
}

func TestBuildTooManyVerticesRejected(t *testing.T) {
	// (p=1,q=1) addresses only 256*256 vertices; ask for more.
	cfg := ScaledConfig(1, 1, 4096)
	src := adjSource{adj: make([][]uint64, 70000)}
	if _, err := Build(src, cfg); err == nil {
		t.Error("oversized graph accepted")
	}
}

func TestBuildPageIDOverflowRejected(t *testing.T) {
	// p=1 allows 256 pages; 10k isolated vertices in 256-byte pages need more.
	cfg := ScaledConfig(1, 2, 256)
	src := adjSource{adj: make([][]uint64, 10000)}
	if _, err := Build(src, cfg); err == nil {
		t.Error("page-ID overflow not detected")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	src := randomGraph(rand.New(rand.NewSource(3)), 200, 8, 70)
	g, err := Build(src, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != g.encodedSize() {
		t.Errorf("encoded %d bytes, encodedSize says %d", buf.Len(), g.encodedSize())
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() ||
		g2.NumSP() != g.NumSP() || g2.NumLP() != g.NumLP() {
		t.Fatalf("metadata mismatch after round trip")
	}
	checkRoundTrip(t, g2, src)
}

func TestStoreDetectsCorruption(t *testing.T) {
	src := figure1Graph(100)
	g, err := Build(src, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Errorf("corrupted read err = %v, want ErrChecksum", err)
	}
}

func TestStoreRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestStoreFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gts")
	src := figure1Graph(30)
	g, err := Build(src, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, g2, src)
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyBytes(t *testing.T) {
	src := figure1Graph(30)
	g, err := Build(src, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := int64(g.NumPages()) * int64(g.Config().PageSize)
	if got := g.TopologyBytes(); got != want {
		t.Errorf("TopologyBytes = %d, want %d", got, want)
	}
}

func TestKindString(t *testing.T) {
	if SmallPage.String() != "SP" || LargePage.String() != "LP" {
		t.Error("Kind.String mismatch")
	}
}

func TestLPRunSequence(t *testing.T) {
	// Degree 100 with 58 entries per 256-byte LP forces a multi-page run
	// with increasing LPSeq.
	src := figure1Graph(100)
	g, err := Build(src, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLP() < 2 {
		t.Fatalf("NumLP = %d, want >= 2", g.NumLP())
	}
	for i, pid := range g.LPIDs() {
		e := g.RVT(pid)
		if e.StartVID != 3 {
			t.Errorf("LP %d owner = %d, want 3", pid, e.StartVID)
		}
		if int(e.LPSeq) != i {
			t.Errorf("LP %d seq = %d, want %d", pid, e.LPSeq, i)
		}
	}
}
