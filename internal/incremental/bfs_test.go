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

// afterInserts captures a prior on allocSpec, commits a seeded batch of 64
// random inserts, and returns the harness, the new snapshot, the ops since
// the prior and a System over the snapshot.
func afterInserts(t *testing.T) (*harness, *gts.Graph, []gts.EdgeOp, *gts.System) {
	t.Helper()
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
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return h, g, h.delta(t, h.mg.Epoch()), sys
}

// TestDeltaBFSAllocatesNoMoreThanAFullRun: PlanBFS plus one IncBFS run after
// a 64-edge insert batch allocate no more heap bytes than the full BFS it
// replaces (the algorithm table's bfs kernel) on the same snapshot: the plan
// keeps the prior read-only and its seeds in a sparse overlay, so the run's
// level vector is its only |V|-sized vector of int16s.
func TestDeltaBFSAllocatesNoMoreThanAFullRun(t *testing.T) {
	h, g, delta, sys := afterInserts(t)
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

// ccAllocBudget is what PlanCC plus one IncCC run may allocate at allocSpec
// after a 64-edge insert batch: the run's label vector, snap and the scan
// set (2 × 4 B and 1 bit per vertex, 532 480 B at 2^16 vertices), and under
// 28 KB besides. Before the plan kept its seeds as a sparse list it also
// allocated a third label vector and measured 818 872 B.
const ccAllocBudget = 560_000

// TestDeltaCCAllocationBudget: PlanCC plus one IncCC run after a 64-edge
// insert batch stay within ccAllocBudget on the serve-live graph.
func TestDeltaCCAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation adds to the engine's allocations")
	}
	h, g, delta, sys := afterInserts(t)
	want := computeOracle(t, g, nil).labels

	var seeds int
	var got []uint32
	inc := allocated(func() {
		k, reason := incremental.PlanCC(g, h.prior.labels, delta)
		if reason != "" {
			t.Fatalf("cc fallback %q on an insert-only batch", reason)
		}
		st, _, err := sys.RunKernel(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		seeds, got = k.Seeds, k.Components(st)
	})
	if seeds == 0 {
		t.Fatal("the batch seeded nothing: the delta run relabeled no vertex")
	}
	if i := cmpLabels(want, got); i >= 0 {
		t.Fatalf("cc diverges at vertex %d: full=%d inc=%d", i, want[i], got[i])
	}
	t.Logf("delta CC %d B (%d seeds)", inc, seeds)
	if inc > ccAllocBudget {
		t.Errorf("delta CC allocated %d B, over its budget of %d B", inc, ccAllocBudget)
	}
}
