package slottedpage

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/csr"
	"repro/internal/graphgen"
)

// rmatPages packs RMAT27 shrunk by shrink into 4 KB pages: shrink 16 is
// the kernel tests' 2 048-vertex graph, shrink 11 the benchmark's RMAT27@11
// (65 536 vertices, whose reverse index is ≈ 4.7 MB).
func rmatPages(tb testing.TB, shrink int) (*csr.Graph, *Graph) {
	tb.Helper()
	d, _ := graphgen.ByName("RMAT27")
	g := d.MustGenerate(shrink)
	sp, err := Build(g, ScaledConfig(2, 2, 4096))
	if err != nil {
		tb.Fatal(err)
	}
	return g, sp
}

// TestReverse checks the reverse index against a transpose built straight
// from the CSR source — same in-neighbor multisets, sorted by source VID —
// and against the index a per-vertex NeighborsOf walk builds, entry for
// entry.
func TestReverse(t *testing.T) {
	g, sp := rmatPages(t, 16)
	rev := sp.Reverse()
	tr := g.Transpose()
	n := g.NumVertices()
	old := make([][]uint32, n)
	for v := uint64(0); v < n; v++ {
		sp.NeighborsOf(v, func(dst uint64) { old[dst] = append(old[dst], uint32(v)) })
	}
	for v := uint64(0); v < n; v++ {
		got := append([]uint32(nil), rev.In(v)...)
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

// TestReverseConcurrentCallersShareOne: first callers racing on a fresh
// graph all get one index.
func TestReverseConcurrentCallersShareOne(t *testing.T) {
	_, sp := rmatPages(t, 16)
	got := make([]*Reverse, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sp.Reverse()
		}()
	}
	wg.Wait()
	for i, r := range got {
		if r != got[0] {
			t.Fatalf("caller %d got index %p, caller 0 got %p", i, r, got[0])
		}
	}
	if again := sp.Reverse(); again != got[0] {
		t.Fatalf("a later caller got index %p while %p is held", again, got[0])
	}
}

// TestReverseRebuiltAfterGC: once no caller holds the index a collection
// reclaims it, and the next call builds an equal one.
func TestReverseRebuiltAfterGC(t *testing.T) {
	_, sp := rmatPages(t, 16)
	first := *sp.Reverse() // the in-lists stay alive; the index itself does not
	runtime.GC()
	second := sp.Reverse()
	if &second.targets[0] == &first.targets[0] {
		t.Fatal("the index survived a collection with no holder")
	}
	if !reflect.DeepEqual(*second, first) {
		t.Fatal("the rebuilt index differs from the first")
	}
}

// TestReverseNotRetained: the graph does not keep its index alive. At
// RMAT27@11 the heap
// grows by the index's size while a caller holds it and returns to where it
// was once the caller lets go.
func TestReverseNotRetained(t *testing.T) {
	_, sp := rmatPages(t, 11)
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const slack = 512 << 10
	before := heap()
	rev := sp.Reverse()
	size := int64(8*(sp.NumVertices()+1) + 4*sp.NumEdges())
	if held := heap(); held-before < size-slack {
		t.Fatalf("holding a %d-byte index grew the heap by %d bytes", size, held-before)
	}
	runtime.KeepAlive(rev)
	if after := heap(); after-before > slack || before-after > slack {
		t.Fatalf("heap %d bytes before the first call, %d after the index was dropped", before, after)
	}
	runtime.KeepAlive(sp) // the graph lives throughout; only its index may go
}

// BenchmarkBuildReverse prices what a Reverse call costs when no live index
// exists, at RMAT27@11: two page-sequential passes through the decoder, two
// allocations (offsets, targets) plus the index header.
func BenchmarkBuildReverse(b *testing.B) {
	_, sp := rmatPages(b, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev := buildReverse(sp)
		if uint64(len(rev.targets)) != sp.NumEdges() || rev.offsets[sp.NumVertices()] != int64(len(rev.targets)) {
			b.Fatalf("index holds %d edges, graph has %d", len(rev.targets), sp.NumEdges())
		}
	}
}
