package kernels

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graphgen"
	"repro/internal/slottedpage"
	"repro/internal/verify"
)

// TestDriverDirBFS drives the direction-optimizing BFS through the
// package-local framework loop in every mode against the float-free
// reference. The reverse index must exist after a run exactly when some
// level pulled: a push-only traversal never builds it.
func TestDriverDirBFS(t *testing.T) {
	g, sp := driverGraph(t)
	want := verify.BFS(g, 0)
	for _, mode := range []DirMode{DirAuto, DirForcePush, DirForcePull} {
		k := NewDirBFS(sp)
		k.SetMode(mode)
		if k.Mode() != mode {
			t.Fatalf("Mode() = %v after SetMode(%v)", k.Mode(), mode)
		}
		if k.rev.offsets != nil {
			t.Fatalf("mode=%v: NewDirBFS built the reverse index", mode)
		}
		st := drive(t, k, sp, 0)
		got := k.Levels(st)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("mode=%v: vertex %d level = %d, want %d", mode, v, got[v], want[v])
			}
		}
		if built := k.rev.offsets != nil; built != (mode != DirForcePush) {
			t.Fatalf("mode=%v: reverse index built = %v", mode, built)
		}
	}
}

func TestDirectionString(t *testing.T) {
	cases := map[Direction]string{DirNone: "none", DirPush: "push", DirPull: "pull", Direction(9): "none"}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("Direction(%d).String() = %q, want %q", d, got, want)
		}
	}
}

// TestRevAdj checks the host-side reverse CSR against a transpose built
// straight from the CSR source — same in-neighbor multisets, sorted by
// source VID — and against the index the per-vertex NeighborsOf walk used
// to build, entry for entry; out-degrees read off ADJLIST_SZ must match the
// forward graph.
func TestRevAdj(t *testing.T) {
	g, sp := driverGraph(t)
	rev := revAdj{g: sp}
	rev.ensure()
	outDeg := outDegrees(sp)
	tr := g.Transpose()
	n := g.NumVertices()
	old := make([][]uint32, n)
	for v := uint64(0); v < n; v++ {
		sp.NeighborsOf(v, func(dst uint64) { old[dst] = append(old[dst], uint32(v)) })
	}
	for v := uint64(0); v < n; v++ {
		if int(outDeg[v]) != g.Degree(v) {
			t.Fatalf("vertex %d outDeg = %d, want %d", v, outDeg[v], g.Degree(v))
		}
		got := append([]uint32(nil), rev.in(v)...)
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("vertex %d in-neighbors not sorted: %v", v, got)
		}
		want := append([]uint32(nil), tr.Out(uint32(v))...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("vertex %d in-neighbors = %v, want %v", v, got, want)
		}
		if !reflect.DeepEqual(got, old[v]) {
			t.Fatalf("vertex %d in-neighbors = %v, NeighborsOf-built index has %v", v, got, old[v])
		}
	}
}

// BenchmarkBuildRevAdj prices the reverse index every pulling DirBFS run
// and every incremental CC/PageRank plan builds: two page-sequential passes
// through the decoder, two allocations (offsets, targets).
func BenchmarkBuildRevAdj(b *testing.B) {
	d, _ := graphgen.ByName("RMAT27")
	sp, err := slottedpage.Build(d.MustGenerate(11), slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offsets, targets := buildRevAdj(sp)
		if uint64(len(targets)) != sp.NumEdges() || offsets[sp.NumVertices()] != int64(len(targets)) {
			b.Fatalf("index holds %d edges, graph has %d", len(targets), sp.NumEdges())
		}
	}
}

// TestMarkVertexPages: a vertex always marks its home page; a large vertex
// marks its whole LP run only when the direction expands adjacency.
func TestMarkVertexPages(t *testing.T) {
	_, sp := driverGraph(t)
	var small, large uint64
	foundLarge := false
	for v := uint64(0); v < sp.NumVertices(); v++ {
		if sp.Kind(sp.HomeOf(v).PID) == slottedpage.LargePage {
			large, foundLarge = v, true
		} else {
			small = v
		}
	}

	set := bitset.New(sp.NumPages())
	markVertexPages(sp, small, set, true)
	if !set.Get(int(sp.HomeOf(small).PID)) {
		t.Fatalf("small vertex %d home page not marked", small)
	}
	if n := set.Count(); n != 1 {
		t.Fatalf("small vertex marked %d pages, want 1", n)
	}

	if !foundLarge {
		t.Skip("test graph has no large vertex at this page scale")
	}
	home := sp.HomeOf(large).PID
	runLen := 0
	for pid := home; int(pid) < sp.NumPages() &&
		sp.Kind(pid) == slottedpage.LargePage && sp.RVT(pid).StartVID == large; pid++ {
		runLen++
	}
	expanded := bitset.New(sp.NumPages())
	markVertexPages(sp, large, expanded, true)
	if got := expanded.Count(); got != runLen {
		t.Errorf("expandLP marked %d pages of vertex %d's run, want %d", got, large, runLen)
	}
	homeOnly := bitset.New(sp.NumPages())
	markVertexPages(sp, large, homeOnly, false)
	if got := homeOnly.Count(); got != 1 {
		t.Errorf("home-only marking set %d pages, want 1", got)
	}
}

// TestDirOptKernelMetadata pins the identity surface the engine and the
// bench record key on.
func TestDirOptKernelMetadata(t *testing.T) {
	_, sp := driverGraph(t)
	bk := NewDirBFS(sp)
	if bk.Name() != "BFS-diropt" || bk.Class() != BFSLike || bk.RAPerVertex() != 0 {
		t.Errorf("DirBFS metadata: %q %v %d", bk.Name(), bk.Class(), bk.RAPerVertex())
	}
	// Termination belongs to PlanLevel.
	if bk.EndIteration(nil, true) {
		t.Error("frontier kernels must not extend runs via EndIteration")
	}
	bk.BeginLevel(nil, 0)
}
