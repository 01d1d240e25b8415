package incremental_test

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	gts "repro"
	"repro/internal/csr"
	"repro/internal/incremental"
)

// TestDeltaLowersAChain: on a chain 0 -> 1 -> ... -> 39 beside two
// unreached vertices 40 and 41, the batch {0->20, 0->40, 40->41} lowers
// every vertex from 20 on by 19 levels, each lowering reached only through
// the one before it, and reaches 40 and 41. The seeds compound in op order:
// 20 and 40 at level 1, then 41 at level 2 from 40's seed.
func TestDeltaLowersAChain(t *testing.T) {
	const n = 42
	var edges []csr.Edge
	for v := uint32(0); v+1 < 40; v++ {
		edges = append(edges, csr.Edge{Src: v, Dst: v + 1})
	}
	g, err := gts.BuildGraph(csr.MustFromEdges(n, edges), gts.ScaledPageConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(t.TempDir(), "chain.gts")
	if err := g.WriteFile(spec); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, spec)
	h.capture(computeOracle(t, h.mg.Snapshot(), nil))
	h.ingest(t, []gts.EdgeOp{{Src: 0, Dst: 20}, {Src: 0, Dst: 40}, {Src: 40, Dst: 41}})
	snap := h.mg.Snapshot()
	want := computeOracle(t, snap, nil)
	k, reason := incremental.PlanBFS(snap, h.prior.levels, h.delta(t, h.mg.Epoch()))
	if reason != "" {
		t.Fatalf("bfs fallback %q on an insert-only batch", reason)
	}
	if k.Seeds != 3 {
		t.Errorf("%d seeds, want 3: 20 and 40 at level 1, 41 at level 2", k.Seeds)
	}
	st, _ := runKernel(t, snap, k, bfsSource, nil)
	if i := cmpLevels(want.levels, k.Levels(st)); i >= 0 {
		t.Fatalf("bfs diverges at vertex %d: full=%d inc=%d", i, want.levels[i], k.Levels(st)[i])
	}
	if got := k.Levels(st)[39]; got != 20 {
		t.Fatalf("vertex 39 at level %d, want 20", got)
	}
}

// allocSpec is a graph big enough that |V|-sized vectors, not the engine's
// fixed costs, decide what a run allocates: 2^16 vertices, serve-live's.
const allocSpec = "RMAT27@11"

// allocated is the smallest number of heap bytes one call of fn allocated
// over three calls.
func allocated(fn func()) uint64 {
	var least uint64
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// TestDeltaBFSAllocatesNoMoreThanAFullRun: PlanBFS plus one IncBFS run after
// a 64-edge insert batch allocate no more heap bytes than the full BFS it
// replaces (the algorithm table's bfs kernel) on the same snapshot: the plan
// keeps the prior read-only and its seeds in a sparse overlay, so the run's
// level vector is its only |V|-sized vector of int16s.
func TestDeltaBFSAllocatesNoMoreThanAFullRun(t *testing.T) {
	h := newHarness(t, allocSpec)
	g := h.mg.Snapshot()
	h.capture(computeOracle(t, g, nil))
	n := int64(g.NumVertices())
	r := rand.New(rand.NewSource(1))
	ops := make([]gts.EdgeOp, 64)
	for i := range ops {
		ops[i] = gts.EdgeOp{Src: uint64(r.Int63n(n)), Dst: uint64(r.Int63n(n))}
	}
	h.ingest(t, ops)
	g = h.mg.Snapshot()
	delta := h.delta(t, h.mg.Epoch())
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bfs, _ := gts.LookupAlgorithm("bfs")
	p, err := bfs.Normalize(gts.Params{Source: bfsSource})
	if err != nil {
		t.Fatal(err)
	}

	var seeds int
	inc := allocated(func() {
		k, reason := incremental.PlanBFS(g, h.prior.levels, delta)
		if reason != "" {
			t.Fatalf("bfs fallback %q on an insert-only batch", reason)
		}
		if _, _, err := sys.RunKernel(k, bfsSource); err != nil {
			t.Fatal(err)
		}
		seeds = k.Seeds
	})
	full := allocated(func() {
		if _, _, err := sys.RunKernel(bfs.Kernel(g, p), p.Source); err != nil {
			t.Fatal(err)
		}
	})
	if seeds == 0 {
		t.Fatal("the batch seeded nothing: the delta run expanded no frontier")
	}
	t.Logf("delta BFS %d B (%d seeds), full BFS %d B", inc, seeds, full)
	if inc > full {
		t.Errorf("delta BFS allocated %d B, more than a full BFS's %d B", inc, full)
	}
}
