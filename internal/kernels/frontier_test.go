package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// TestPlanHelpersMatchMarkVertexPages checks the two page-by-page planners
// against the per-vertex form: pagesAtLevel over a level vector and pagesInSet
// over a bit set must each give the union of MarkVertexPages(v, next, true)
// over their vertices — a large vertex's whole run included — for random
// frontiers from one vertex to most of the graph.
func TestPlanHelpersMatchMarkVertexPages(t *testing.T) {
	_, sp := driverGraph(t)
	if len(sp.LPIDs()) < 2 {
		t.Fatal("the test graph has no large-page runs")
	}
	nV, nP := int(sp.NumVertices()), sp.NumPages()
	rng := rand.New(rand.NewSource(7))
	got, want := bitset.New(nP), bitset.New(nP)
	for trial := range 60 {
		// One vertex in every 1, 10, 100 or 1000 on the frontier, and in
		// every other trial a large vertex too.
		every := []int{1, 10, 100, 1000}[trial%4]
		lv := make([]int16, nV)
		set := bitset.New(nV)
		want.Reset()
		for v := range lv {
			lv[v] = int16(rng.Intn(3)) - 1 // unvisited, level 0 or 1: never the frontier's
			if rng.Intn(every) == 0 || trial%2 == 0 && v == int(sp.RVT(sp.LPIDs()[trial%len(sp.LPIDs())]).StartVID) {
				lv[v] = 2
				set.Set(v)
				MarkVertexPages(sp, uint64(v), want, true)
			}
		}
		pagesAtLevel(sp, lv, 2, got)
		if !sameSet(got, want) {
			t.Fatalf("trial %d (1 in %d): pagesAtLevel plans %d pages, the vertices' pages are %d", trial, every, got.Count(), want.Count())
		}
		got.Set(0) // the helpers start from a reset set
		pagesInSet(sp, set, got)
		if !sameSet(got, want) {
			t.Fatalf("trial %d (1 in %d): pagesInSet plans %d pages, the vertices' pages are %d", trial, every, got.Count(), want.Count())
		}
	}
}

// TestDirBFSPlanMatchesPerVertexPlan checks DirBFS's one-pass plan against
// the per-vertex plan it replaced — price the frontier, pick the direction,
// then mark each frontier vertex's pages with its large-page run (push) or
// each unvisited vertex's home page (pull) — on random level vectors over a
// graph with large-page runs, in forced push, forced pull and auto mode:
// the same direction and the same page set.
func TestDirBFSPlanMatchesPerVertexPlan(t *testing.T) {
	_, sp := driverGraph(t)
	if len(sp.LPIDs()) < 2 {
		t.Fatal("the test graph has no large-page runs")
	}
	nP := sp.NumPages()
	rng := rand.New(rand.NewSource(11))
	got, want := bitset.New(nP), bitset.New(nP)
	for _, mode := range []DirMode{DirForcePush, DirForcePull, DirAuto} {
		k := NewDirBFS(sp)
		k.SetMode(mode)
		st := k.NewState()
		lv := st.(*bfsState).lv
		dirs := map[Direction]int{}
		for trial := range 40 {
			// No frontier, or one vertex in every 1 ... 1000 on it, and in
			// every other trial a large vertex too; the rest unvisited or
			// at an earlier level.
			every := []int{0, 1, 3, 10, 30, 100, 1000}[trial%7]
			lp := int(sp.RVT(sp.LPIDs()[trial%len(sp.LPIDs())]).StartVID)
			for v := range lv {
				lv[v] = int16(rng.Intn(3)) - 1
				if every > 0 && (rng.Intn(every) == 0 || trial%2 == 0 && v == lp) {
					lv[v] = 2
				}
			}
			var frontierEdges int64
			want.Reset()
			wantDir := DirNone
			for v, l := range lv {
				if l == 2 {
					frontierEdges += int64(k.outDeg.Of(uint64(v)))
					wantDir = DirPush
				}
			}
			if wantDir != DirNone && (mode == DirForcePull || mode == DirAuto && frontierEdges > k.denseThreshold) {
				wantDir = DirPull
			}
			for v, l := range lv {
				if wantDir == DirPush && l == 2 || wantDir == DirPull && l == unvisited {
					MarkVertexPages(sp, uint64(v), want, wantDir == DirPush)
				}
			}
			got.Set(0) // the plan starts from a reset set
			dir := k.PlanLevel([]State{st}, 2, got)
			if dir != wantDir || !sameSet(got, want) {
				t.Fatalf("mode %d trial %d (1 in %d): plans %v over %d pages, the per-vertex plan %v over %d", mode, trial, every, dir, got.Count(), wantDir, want.Count())
			}
			dirs[dir]++
		}
		if mode == DirAuto && (dirs[DirPush] == 0 || dirs[DirPull] == 0 || dirs[DirNone] == 0) {
			t.Fatalf("auto mode planned %v: want every outcome", dirs)
		}
	}
}
