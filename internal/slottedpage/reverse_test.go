package slottedpage

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
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

// TestOutDegreesSharedWhileHeld: first callers racing on a fresh graph all
// get one out-degree table, equal to DegreeOf vertex by vertex; once no
// caller holds it a collection reclaims it.
func TestOutDegreesSharedWhileHeld(t *testing.T) {
	_, sp := rmatPages(t, 16)
	got := make([]*OutDegrees, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sp.OutDegrees()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != got[0] {
			t.Fatalf("caller %d got table %p, caller 0 got %p", i, d, got[0])
		}
	}
	for v := uint64(0); v < sp.NumVertices(); v++ {
		if d := got[0].Of(v); int(d) != sp.DegreeOf(v) {
			t.Fatalf("vertex %d out-degree = %d, DegreeOf says %d", v, d, sp.DegreeOf(v))
		}
	}
	first := &got[0].deg[0] // the degrees stay alive; the table itself does not
	got = nil
	runtime.GC()
	if &sp.OutDegrees().deg[0] == first {
		t.Fatal("the table survived a collection with no holder")
	}
}

// TestReverseRebuiltAfterGC: once no caller holds the index a collection
// reclaims it, and the next call builds an equal one.
func TestReverseRebuiltAfterGC(t *testing.T) {
	_, sp := rmatPages(t, 16)
	first := *sp.Reverse() // the in-lists stay alive; the index itself does not
	runtime.GC()
	second := sp.Reverse()
	if &second.blocks[0] == &first.blocks[0] {
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
	n, nb := sp.NumVertices(), revBlocks(sp.NumVertices())
	size := int64(4*(n+nb) + 4*sp.NumEdges() + 48*nb)
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
// exists, at RMAT27@11: two page-sequential passes through the decoder and
// four allocations (the offsets all blocks share, the sources all blocks
// share, the block table and the index header).
func BenchmarkBuildReverse(b *testing.B) {
	_, sp := rmatPages(b, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := revEdges(buildReverse(sp)); got != sp.NumEdges() {
			b.Fatalf("index holds %d edges, graph has %d", got, sp.NumEdges())
		}
	}
}

// BenchmarkPatchReverse prices what a commit costs the index when the
// predecessor's is alive: one 64-edge insert batch of uniform random
// endpoints at RMAT27@11, patched into the predecessor's index.
func BenchmarkPatchReverse(b *testing.B) {
	_, sp := rmatPages(b, 11)
	rev, n := buildReverse(sp), sp.NumVertices()
	ops := randomInserts(rand.New(rand.NewSource(1)), 64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := revEdges(rev.patched(n, ops)); got != sp.NumEdges()+64 {
			b.Fatalf("patched index holds %d edges, want %d", got, sp.NumEdges()+64)
		}
	}
}

// revEdges is the number of in-list entries an index holds.
func revEdges(r *Reverse) uint64 {
	var e uint64
	for _, b := range r.blocks {
		e += uint64(len(b.srcs))
	}
	return e
}

// randomInserts is k inserts of uniform random edges over n vertices.
func randomInserts(rng *rand.Rand, k int, n uint64) []EdgeOp {
	ops := make([]EdgeOp, k)
	for i := range ops {
		ops[i] = EdgeOp{Src: uint64(rng.Int63n(int64(n))), Dst: uint64(rng.Int63n(int64(n)))}
	}
	return ops
}

// reverseEqual fails unless got has want's blocks and every in-list of want.
func reverseEqual(t testing.TB, got, want *Reverse, label string) {
	t.Helper()
	if len(got.blocks) != len(want.blocks) {
		t.Fatalf("%s: %d blocks, want %d", label, len(got.blocks), len(want.blocks))
	}
	for b := range want.blocks {
		if len(got.blocks[b].offs) != len(want.blocks[b].offs) {
			t.Fatalf("%s: block %d has %d offsets, want %d", label, b, len(got.blocks[b].offs), len(want.blocks[b].offs))
		}
		for i := range len(want.blocks[b].offs) - 1 {
			v := uint64(b*revBlockSize + i)
			if !slices.Equal(got.In(v), want.In(v)) {
				t.Fatalf("%s: vertex %d in-neighbors = %v, a fresh build has %v", label, v, got.In(v), want.In(v))
			}
		}
	}
}

// mixedBatch draws k ops over the n vertices of m's current graph: inserts
// of random edges, of existing ones (parallel edges), of self loops and of
// edges naming up to 300 new vertices (so a batch can fill the tail block
// and open new ones), deletes of existing and absent edges, and a repeat
// of an earlier op of the batch.
func mixedBatch(rng *rand.Rand, m *Mutable, k int) []EdgeOp {
	g := m.Snapshot()
	n := g.NumVertices()
	existing := func() EdgeOp {
		for {
			src := uint64(rng.Int63n(int64(n)))
			var out []uint64
			g.NeighborsOf(src, func(d uint64) { out = append(out, d) })
			if len(out) > 0 {
				return EdgeOp{Src: src, Dst: out[rng.Intn(len(out))]}
			}
		}
	}
	ops := make([]EdgeOp, 0, k)
	for len(ops) < k {
		var op EdgeOp
		switch rng.Intn(8) {
		case 0, 1:
			op = EdgeOp{Src: uint64(rng.Int63n(int64(n))), Dst: uint64(rng.Int63n(int64(n)))}
		case 2:
			op = existing()
		case 3:
			v := uint64(rng.Int63n(int64(n)))
			op = EdgeOp{Src: v, Dst: v}
		case 4:
			op = EdgeOp{Src: uint64(rng.Int63n(int64(n))), Dst: n + uint64(rng.Intn(300))}
			if rng.Intn(2) == 0 {
				op.Src, op.Dst = op.Dst, op.Src
			}
		case 5:
			op = existing()
			op.Del = true
		case 6:
			op = EdgeOp{Del: true, Src: uint64(rng.Int63n(int64(n))), Dst: uint64(rng.Int63n(int64(n)))}
		case 7:
			if len(ops) == 0 {
				continue
			}
			op = ops[rng.Intn(len(ops))]
			op.Del = rng.Intn(2) == 0
		}
		ops = append(ops, op)
	}
	return ops
}

// TestReversePatchMatchesBuild commits random mixed batches at RMAT27@14
// while holding each epoch's index, so every commit patches its
// predecessor's: each epoch's index must equal a fresh buildReverse of its
// graph, in-list for in-list, and share every block the batch left alone.
func TestReversePatchMatchesBuild(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the patched index is held weakly
	_, sp := rmatPages(t, 14)
	m := NewMutable(sp)
	rng := rand.New(rand.NewSource(7))
	prev := sp.Reverse()
	for epoch := 0; epoch < 24; epoch++ {
		ops := mixedBatch(rng, m, 1+rng.Intn(96))
		next, err := m.ApplyBatch(ops)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		got := next.rev.Value()
		if got == nil {
			t.Fatalf("epoch %d: the commit handed the new graph no index", epoch)
		}
		reverseEqual(t, got, buildReverse(next), fmt.Sprintf("epoch %d", epoch))
		dsts := make(map[int]bool)
		for _, op := range ops {
			dsts[int(op.Dst/revBlockSize)] = true
		}
		for b := range prev.blocks {
			same := len(prev.blocks[b].offs) == len(got.blocks[b].offs)
			if shared := &prev.blocks[b].offs[0] == &got.blocks[b].offs[0]; shared != (same && !dsts[b]) {
				t.Fatalf("epoch %d: block %d shared %v, batch touches it %v", epoch, b, shared, dsts[b])
			}
		}
		if next.Reverse() != got {
			t.Fatalf("epoch %d: Reverse built a second index beside the patched one", epoch)
		}
		prev = got
	}
}

// FuzzReversePatch derives a graph of up to 766 vertices and a chain of
// batches from its input, and patches the index epoch after epoch: every
// patched index must equal a fresh buildReverse of the committed graph.
func FuzzReversePatch(f *testing.F) {
	f.Add(byte(200), []byte{0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 1, 2, 0, 1, 0, 2, 0, 1, 1, 0})
	f.Add(byte(85), []byte{4, 0, 7, 3, 200, 0, 3, 200, 0, 7, 2, 1, 255, 1, 255, 1, 1, 255, 1, 255})
	f.Fuzz(func(t *testing.T, size byte, script []byte) {
		n := 1 + 3*uint64(size)
		adj := make([][]uint64, n)
		for v := range adj {
			for d := 1; d <= v%5; d++ {
				adj[v] = append(adj[v], uint64(v*d)%n)
			}
		}
		g, err := Build(adjSource{adj: adj}, ScaledConfig(2, 2, 1024))
		if err != nil {
			t.Fatal(err)
		}
		m, rev := NewMutable(g), buildReverse(g)
		// Five bytes an op: a kind byte (bit 0 deletes, bit 1 ends the
		// batch) and two 16-bit endpoints below n + 300.
		var ops []EdgeOp
		for ; len(script) >= 5; script = script[5:] {
			lim := g.NumVertices() + 300
			ops = append(ops, EdgeOp{
				Del: script[0]&1 == 1,
				Src: (uint64(script[1])<<8 | uint64(script[2])) % lim,
				Dst: (uint64(script[3])<<8 | uint64(script[4])) % lim,
			})
			if script[0]&2 == 0 && len(script) >= 10 {
				continue
			}
			if g, err = m.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
			rev = rev.patched(g.NumVertices(), ops)
			reverseEqual(t, rev, buildReverse(g), "patched")
			ops = nil
		}
	})
}
