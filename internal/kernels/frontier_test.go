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
