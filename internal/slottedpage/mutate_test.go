package slottedpage

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// graphsIdentical asserts two graphs are byte-identical: same pages, sums,
// side tables, counts.
func graphsIdentical(t *testing.T, got, want *Graph, label string) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d vertices / %d edges, want %d / %d",
			label, got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if got.NumPages() != want.NumPages() {
		t.Fatalf("%s: %d pages, want %d", label, got.NumPages(), want.NumPages())
	}
	for pid := PageID(0); int(pid) < got.NumPages(); pid++ {
		if got.PageChecksum(pid) != want.PageChecksum(pid) {
			t.Fatalf("%s: page %d checksum mismatch", label, pid)
		}
		if !bytes.Equal(got.PageBytes(pid), want.PageBytes(pid)) {
			t.Fatalf("%s: page %d bytes differ", label, pid)
		}
		if got.Kind(pid) != want.Kind(pid) || got.RVT(pid) != want.RVT(pid) {
			t.Fatalf("%s: page %d side tables differ", label, pid)
		}
	}
	for v := uint64(0); v < got.NumVertices(); v++ {
		if got.HomeOf(v) != want.HomeOf(v) {
			t.Fatalf("%s: vertex %d home RID differs", label, v)
		}
	}
}

func TestApplyBatchMatchesRebuild(t *testing.T) {
	cfg := tinyConfig()
	base := adjSource{adj: [][]uint64{{1, 2}, {2}, {0}, {}}}
	g, err := Build(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutable(g)

	batches := [][]EdgeOp{
		{{Src: 3, Dst: 0}, {Src: 0, Dst: 3}},
		{{Del: true, Src: 0, Dst: 1}},
		{{Src: 5, Dst: 1}, {Src: 1, Dst: 5}}, // grows the vertex space to 6
		{{Del: true, Src: 9, Dst: 9}},        // delete of an absent edge: no-op, no growth
	}
	// The oracle mirrors the batches against a plain adjacency list and
	// rebuilds from scratch after each batch.
	oracle := [][]uint64{{1, 2}, {2}, {0}, {}}
	for bi, ops := range batches {
		got, err := m.ApplyBatch(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		grow := func(v uint64) {
			if v >= uint64(len(oracle)) {
				grown := make([][]uint64, v+1)
				copy(grown, oracle)
				oracle = grown
			}
		}
		for _, op := range ops {
			if !op.Del {
				grow(op.Src)
				grow(op.Dst)
			}
			if op.Src >= uint64(len(oracle)) {
				continue // a delete from a vertex the graph does not have
			}
			if op.Del {
				kept := oracle[op.Src][:0]
				for _, d := range oracle[op.Src] {
					if d != op.Dst {
						kept = append(kept, d)
					}
				}
				oracle[op.Src] = kept
			} else {
				oracle[op.Src] = append(oracle[op.Src], op.Dst)
			}
		}
		want, err := Build(adjSource{adj: oracle}, cfg)
		if err != nil {
			t.Fatalf("batch %d oracle build: %v", bi, err)
		}
		graphsIdentical(t, got, want, "after batch")
		if err := got.Validate(); err != nil {
			t.Fatalf("batch %d: Validate: %v", bi, err)
		}
		if m.Snapshot() != got {
			t.Fatalf("batch %d: Snapshot is not the published successor", bi)
		}
	}
}

func TestApplyBatchAdoptsUntouchedPages(t *testing.T) {
	// A big-ish graph where a single-edge batch should leave most pages
	// byte-identical; adopted pages must share the old backing arrays.
	cfg := tinyConfig()
	adj := make([][]uint64, 256)
	for v := range adj {
		for d := 1; d <= 4; d++ {
			adj[v] = append(adj[v], uint64((v+d)%256))
		}
	}
	g, err := Build(adjSource{adj: adj}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutable(g)
	next, err := m.ApplyBatch([]EdgeOp{{Src: 255, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for pid := 0; pid < next.NumPages() && pid < g.NumPages(); pid++ {
		op, np := g.PageBytes(PageID(pid)), next.PageBytes(PageID(pid))
		if len(op) > 0 && len(np) > 0 && &op[0] == &np[0] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("single-edge batch adopted no predecessor pages")
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	// The predecessor snapshot is untouched and still valid.
	if err := g.Validate(); err != nil {
		t.Fatalf("predecessor snapshot corrupted: %v", err)
	}
}

func TestApplyBatchFailureLeavesStateUntouched(t *testing.T) {
	cfg := tinyConfig()
	g, err := Build(adjSource{adj: [][]uint64{{1}, {0}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutable(g)
	before := m.Snapshot()
	huge := cfg.MaxAddressableVertices() + 10
	if _, err := m.ApplyBatch([]EdgeOp{{Src: 0, Dst: 1}, {Src: huge, Dst: 0}}); err == nil {
		t.Fatal("batch naming an unaddressable vertex did not fail")
	}
	if m.Snapshot() != before {
		t.Fatal("failed batch published a snapshot")
	}
	if m.NumEdges() != 2 {
		t.Fatalf("failed batch changed edge count to %d", m.NumEdges())
	}
	// The mirror is intact: a valid follow-up batch applies cleanly.
	next, err := m.ApplyBatch([]EdgeOp{{Src: 1, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Build(adjSource{adj: [][]uint64{{1}, {0, 1}}}, cfg)
	graphsIdentical(t, next, want, "after failed batch")
}

// TestDeleteNeverGrowsTheGraph: a delete naming a vertex past the vertex
// count removes nothing, so it changes nothing — at RMAT27@16 the batch
// below used to take the graph from 2 048 to 5 001 vertices and from 42 to
// 52 pages. An insert in the same batch still grows it, to its own IDs.
func TestDeleteNeverGrowsTheGraph(t *testing.T) {
	_, sp := rmatPages(t, 16)
	m := NewMutable(sp)
	got, err := m.ApplyBatch([]EdgeOp{{Del: true, Src: 5000, Dst: 0}, {Del: true, Src: 0, Dst: 7000}})
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, got, sp, "after deletes past the vertex count")
	n := sp.NumVertices()
	grown, err := m.ApplyBatch([]EdgeOp{{Del: true, Src: n + 100, Dst: 1}, {Src: n, Dst: 0}, {Del: true, Src: n + 1, Dst: n + 200}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumVertices() != n+1 || grown.NumEdges() != sp.NumEdges()+1 {
		t.Fatalf("an insert from vertex %d and two deletes gave %d vertices, %d edges; want %d, %d",
			n, grown.NumVertices(), grown.NumEdges(), n+1, sp.NumEdges()+1)
	}
}

// TestApplyBatchFailureAfterGrowthRestoresMirror: a batch that touches
// rows, grows the vertex space within capacity and then fails in Build
// (5 001 vertices need more pages than a 1-byte page ID addresses) leaves
// the mirror, Snapshot, NumEdges and the bytes of the next commits exactly
// as a Mutable that never saw it has them.
func TestApplyBatchFailureAfterGrowthRestoresMirror(t *testing.T) {
	cfg := ScaledConfig(1, 1, 256)
	base := adjSource{adj: [][]uint64{{1, 2}, {2}, {0}, {}, {4}, {0, 6, 0}, {}, {3}}}
	g, err := Build(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, ref := NewMutable(g), NewMutable(g)
	before := m.Snapshot()
	bad := []EdgeOp{{Src: 0, Dst: 1}, {Del: true, Src: 5, Dst: 0}, {Src: 3, Dst: 3}, {Src: 5000, Dst: 7}, {Src: 9, Dst: 1}}
	if _, err := m.ApplyBatch(bad); err == nil {
		t.Fatal("a batch needing more pages than the config addresses committed")
	}
	if m.Snapshot() != before || m.NumEdges() != ref.NumEdges() {
		t.Fatalf("failed batch moved the snapshot or the edge count (%d, want %d)", m.NumEdges(), ref.NumEdges())
	}
	if !reflect.DeepEqual(m.adj, ref.adj) {
		t.Fatalf("failed batch left the mirror %v, want %v", m.adj, ref.adj)
	}
	for _, ops := range [][]EdgeOp{{{Src: 2, Dst: 6}, {Del: true, Src: 0, Dst: 2}}, {{Src: 12, Dst: 5}}} {
		got, err := m.ApplyBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ApplyBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		graphsIdentical(t, got, want, "after the failed batch")
	}
}

// TestApplyBatchAllocBudget: with the predecessor's index held, a 64-edge
// insert batch at RMAT27@11 allocates the successor's pages, its two home
// tables, the index blocks holding a destination of the batch (about a
// fifth of the index: 0.8-1.7 MB over seeds 1-8) and at most 512 KiB
// besides. The mirror is edited in place, never copied whole (24 B × |V| =
// 1.5 MiB here), and the index is patched, never rebuilt (4.3 MiB).
func TestApplyBatchAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the patched index is held weakly
	_, sp := rmatPages(t, 11)
	m := NewMutable(sp)
	rev := sp.Reverse()
	ops := randomInserts(rand.New(rand.NewSource(3)), 64, sp.NumVertices())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	next, err := m.ApplyBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	got := int64(ms.TotalAlloc - start)
	touched := make(map[uint64]bool)
	var blocks int64
	for _, op := range ops {
		if b := op.Dst / revBlockSize; !touched[b] {
			touched[b] = true
			blocks += 4 * int64(len(rev.blocks[b].offs)+len(rev.blocks[b].srcs))
		}
	}
	budget := next.TopologyBytes() + 8*int64(next.NumVertices()) + blocks + 512<<10
	if got > budget {
		t.Fatalf("a 64-edge batch allocated %d bytes, budget %d (pages %d, touched index blocks %d)",
			got, budget, next.TopologyBytes(), blocks)
	}
	if next.rev.Value() == nil {
		t.Fatal("the commit did not patch the held index")
	}
	runtime.KeepAlive(rev)
}

// BenchmarkApplyBatch prices one commit at RMAT27@11: a seeded 64-edge
// insert batch, which re-packs every page through Build. `make bench` runs
// it at -cpu 1,2.
func BenchmarkApplyBatch(b *testing.B) {
	_, sp := rmatPages(b, 11)
	m, rng := NewMutable(sp), rand.New(rand.NewSource(1))
	batches := make([][]EdgeOp, b.N)
	for i := range batches {
		batches[i] = randomInserts(rng, 64, sp.NumVertices())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, ops := range batches {
		if _, err := m.ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConcurrentSnapshotsDuringMutation(t *testing.T) {
	cfg := tinyConfig()
	adj := make([][]uint64, 64)
	for v := range adj {
		adj[v] = []uint64{uint64((v + 1) % 64)}
	}
	g, err := Build(adjSource{adj: adj}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMutable(g)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := m.Snapshot()
				if err := s.Validate(); err != nil {
					t.Errorf("snapshot invalid during mutation: %v", err)
					return
				}
				var n uint64
				s.NeighborsOf(3, func(uint64) { n++ })
				if in := s.Reverse().In(3); len(in) > int(s.NumEdges()) {
					t.Errorf("vertex 3 has %d in-neighbors in a %d-edge snapshot", len(in), s.NumEdges())
					return
				}
				_ = n
			}
		}()
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		op := EdgeOp{Src: uint64(rng.Intn(64)), Dst: uint64(rng.Intn(64)), Del: rng.Intn(3) == 0}
		if _, err := m.ApplyBatch([]EdgeOp{op}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
