package incremental_test

import (
	"path/filepath"
	"testing"

	gts "repro"
	"repro/internal/bitset"
	"repro/internal/csr"
	"repro/internal/incremental"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// buildLPSpec writes a two-hub graph whose hub adjacencies overflow the
// small-page capacity, so the build emits large-page runs. Hub A (vertex 0)
// anchors the BFS-reachable cluster; hub B (vertex 1600) anchors a second
// cluster that is unreachable from the source until a bridge edge lands.
func buildLPSpec(t testing.TB) string {
	t.Helper()
	const n = 3200
	var edges []csr.Edge
	for i := uint32(1); i <= 1400; i++ {
		edges = append(edges, csr.Edge{Src: 0, Dst: i})
	}
	edges = append(edges, csr.Edge{Src: 1, Dst: 2}, csr.Edge{Src: 2, Dst: 3})
	for i := uint32(1601); i <= 3000; i++ {
		edges = append(edges, csr.Edge{Src: 1600, Dst: i})
	}
	g, err := gts.BuildGraph(csr.MustFromEdges(n, edges), gts.ScaledPageConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "star.gts")
	if err := g.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLargePageDeltaExpansion runs the full differential check on a graph
// with large-page vertices: a bridge insert pulls hub B onto every
// kernel's frontier, so both page kernels run on large pages.
func TestLargePageDeltaExpansion(t *testing.T) {
	spec := buildLPSpec(t)
	h := newHarness(t, spec)
	g0 := h.mg.Snapshot()
	for _, hub := range []uint64{0, 1600} {
		if g0.Kind(g0.HomeOf(hub).PID) != slottedpage.LargePage {
			t.Fatalf("expected hub %d as a large vertex", hub)
		}
	}
	o := computeOracle(t, g0, nil)
	h.capture(t, o)

	h.ingest(t, []gts.EdgeOp{{Src: 1, Dst: 1600}})
	g := h.mg.Snapshot()
	want := computeOracle(t, g, nil)

	prior, delta, reason := h.st.Lookup("bfs", h.mg.Epoch())
	if reason != "" {
		t.Fatalf("bfs lookup: %s", reason)
	}
	kb, reason := incremental.PlanBFS(g, prior, delta)
	if reason != "" {
		t.Fatalf("bfs fallback %q on insert-only bridge", reason)
	}
	st, _ := runKernel(t, g, kb, bfsSource, nil)
	if i := cmpLevels(want.levels, kb.Levels(st)); i >= 0 {
		t.Fatalf("bfs diverges at vertex %d", i)
	}

	prior, delta, reason = h.st.Lookup("cc", h.mg.Epoch())
	if reason != "" {
		t.Fatalf("cc lookup: %s", reason)
	}
	kc, reason := incremental.PlanCC(g, prior, delta)
	if reason != "" {
		t.Fatalf("cc fallback %q on insert-only bridge", reason)
	}
	st, _ = runKernel(t, g, kc, 0, nil)
	if i := cmpLabels(want.labels, kc.Components(st)); i >= 0 {
		t.Fatalf("cc diverges at vertex %d", i)
	}
}

// planFixpoint plans both kernels from a clean fixpoint with an empty
// delta, failing the test on any fallback.
func planFixpoint(t testing.TB, g *gts.Graph, o *oracle) (*incremental.IncBFS, *incremental.IncCC) {
	t.Helper()
	kb, r := incremental.PlanBFS(g, &incremental.Entry{Kind: incremental.KindBFS,
		Levels: o.levels}, incremental.Delta{})
	if r != "" {
		t.Fatalf("bfs plan: %q", r)
	}
	kc, r := incremental.PlanCC(g, &incremental.Entry{Kind: incremental.KindCC,
		Labels: o.labels}, incremental.Delta{})
	if r != "" {
		t.Fatalf("cc plan: %q", r)
	}
	return kb, kc
}

// TestKernelSurface pins the parts of the Kernel contract the engine only
// exercises in specific configurations: state accounting, cloning and
// multi-replica merges.
func TestKernelSurface(t *testing.T) {
	g := openBase(t)
	o := computeOracle(t, g, nil)
	kb, kc := planFixpoint(t, g, o)

	for _, k := range []gts.Kernel{kb, kc} {
		st := k.NewState()
		if st.WABytes() == 0 {
			t.Fatalf("%T: state byte accounting (WA=%d)", k, st.WABytes())
		}
	}

	// Clone independence, observed through the result accessors.
	st := kb.NewState()
	kb.Init(st, bfsSource)
	clone := st.Clone()
	kb.Levels(st)[0] = 99
	if kb.Levels(clone)[0] == 99 {
		t.Fatal("bfs clone aliases its parent's levels")
	}
	cs := kc.NewState()
	kc.Init(cs, 0)
	cclone := cs.Clone()
	kc.Components(cs)[0] = 99
	if kc.Components(cclone)[0] == 99 {
		t.Fatal("cc clone aliases its parent's labels")
	}

	// BFS replicas merge by minimum level with unvisited as the identity.
	a, b := kb.NewState(), kb.NewState()
	la, lb := kb.Levels(a), kb.Levels(b)
	for i := range la {
		la[i], lb[i] = unvisitedLevel, unvisitedLevel
	}
	la[1], lb[1] = 5, 3
	la[2], lb[2] = unvisitedLevel, 7
	la[3], lb[3] = 2, unvisitedLevel
	kb.MergeStates([]kernels.State{a, b})
	if la[1] != 3 || la[2] != 7 || la[3] != 2 {
		t.Fatalf("bfs merge: got (%d,%d,%d), want (3,7,2)", la[1], la[2], la[3])
	}
	if i := cmpLevels(la, lb); i >= 0 {
		t.Fatalf("bfs merge left replicas diverged at %d", i)
	}
	kb.MergeStates([]kernels.State{a}) // single replica: no-op

	// CC replicas merge by minimum label.
	ca, cb := kc.NewState(), kc.NewState()
	for i := range kc.Components(ca) {
		kc.Components(ca)[i] = uint32(i)
		kc.Components(cb)[i] = uint32(i)
	}
	kc.Components(ca)[4] = 1
	kc.Components(cb)[5] = 2
	kc.MergeStates([]kernels.State{ca, cb})
	if kc.Components(ca)[4] != 1 || kc.Components(ca)[5] != 2 {
		t.Fatal("cc merge lost a lowered label")
	}
	if i := cmpLabels(kc.Components(ca), kc.Components(cb)); i >= 0 {
		t.Fatalf("cc merge left replicas diverged at %d", i)
	}
	kc.MergeStates([]kernels.State{ca})
}

// TestOwnershipBounds drives each kernel's page function directly with an
// empty owned range, the strategy-S configuration where another GPU owns
// every attribute entry: no update may land.
func TestOwnershipBounds(t *testing.T) {
	g := openBase(t)
	o := computeOracle(t, g, nil)

	// A fabricated stale entry plus an op over an existing edge gives each
	// planner a genuine seed, so PlanLevel marks real pages.
	var dst uint64
	foundDst := false
	g.NeighborsOf(0, func(v uint64) {
		if !foundDst && v != 0 {
			dst, foundDst = v, true
		}
	})
	if !foundDst {
		t.Skip("vertex 0 has no out-edges in the test graph")
	}
	op := gts.EdgeOp{Src: 0, Dst: dst}
	delta := incremental.Delta{Ops: []gts.EdgeOp{op}}

	staleLv := append([]int16(nil), o.levels...)
	staleLv[dst] = unvisitedLevel
	kb, r := incremental.PlanBFS(g, &incremental.Entry{Kind: incremental.KindBFS,
		Levels: staleLv}, delta)
	if r != "" || kb.Seeds == 0 {
		t.Fatalf("bfs plan: reason %q, %d seeds", r, kb.Seeds)
	}
	staleLb := append([]uint32(nil), o.labels...)
	staleLb[dst] = uint32(dst)
	if staleLb[0] >= staleLb[dst] {
		t.Fatalf("label fixture needs labels[0] < %d", dst)
	}
	kc, r := incremental.PlanCC(g, &incremental.Entry{Kind: incremental.KindCC,
		Labels: staleLb}, delta)
	if r != "" || kc.Seeds == 0 {
		t.Fatalf("cc plan: reason %q, %d seeds", r, kc.Seeds)
	}

	run := func(name string, k gts.Kernel) {
		st := k.NewState()
		k.Init(st, bfsSource)
		next := bitset.New(g.NumPages())
		if dir := k.(kernels.FrontierKernel).PlanLevel([]kernels.State{st}, 0, next); dir != kernels.DirPush {
			t.Fatalf("%s: PlanLevel direction %v with live seeds", name, dir)
		}
		updates := int64(0)
		next.ForEach(func(i int) {
			pid := slottedpage.PageID(i)
			args := kernels.Args{Graph: g, PID: pid, Page: g.Page(pid), State: st,
				OwnedLo: 0, OwnedHi: 0}
			updates += k.Run(&args).Updates
		})
		if updates != 0 {
			t.Fatalf("%s: %d updates landed outside the owned range", name, updates)
		}
	}
	run("bfs", kb)
	run("cc", kc)
}

// TestPlannerShapeFallbacks pins the remaining invalidation-matrix rows:
// retained state over more vertices than the graph.
func TestPlannerShapeFallbacks(t *testing.T) {
	g := openBase(t)
	n := g.NumVertices()
	longLv := make([]int16, n+1)
	if _, r := incremental.PlanBFS(g, &incremental.Entry{Kind: incremental.KindBFS,
		Levels: longLv}, incremental.Delta{}); r != "vertex-shrink" {
		t.Fatalf("bfs shrink reason = %q", r)
	}
	longLb := make([]uint32, n+1)
	if _, r := incremental.PlanCC(g, &incremental.Entry{Kind: incremental.KindCC,
		Labels: longLb}, incremental.Delta{}); r != "vertex-shrink" {
		t.Fatalf("cc shrink reason = %q", r)
	}
}
