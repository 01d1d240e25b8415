package main

import (
	"testing"

	gts "repro"
	"repro/internal/graphgen"
	"repro/internal/verify"
)

// TestMaxLabelIsEachComponentsLargestID runs the example's kernel through
// System.RunKernel on two GPUs over a graph with large-page runs, and checks
// every label against a reference: the largest vertex ID of the vertex's
// weakly connected component.
func TestMaxLabelIsEachComponentsLargestID(t *testing.T) {
	const dataset, shrink = "RMAT27", 14
	graph, err := gts.Generate(dataset, shrink)
	if err != nil {
		t.Fatal(err)
	}
	runPages := map[uint64]int{} // large vertex -> pages in its run
	for _, pid := range graph.LPIDs() {
		runPages[graph.RVT(pid).StartVID]++
	}
	multi := 0
	for _, n := range runPages {
		if n >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatalf("%d large vertices, none on 2 or more pages: the kernel never sees a run", len(runPages))
	}

	sys, err := gts.NewSystem(graph, gts.Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := sys.RunKernel(&maxLabel{g: graph}, 0)
	if err != nil {
		t.Fatal(err)
	}
	labels := st.(*maxState).prev

	d, _ := graphgen.ByName(dataset)
	comp := verify.WCC(d.MustGenerate(shrink)) // each component's smallest ID
	if len(comp) != len(labels) {
		t.Fatalf("%d reference vertices, %d labels", len(comp), len(labels))
	}
	largest := map[uint32]uint32{}
	for v, c := range comp {
		largest[c] = max(largest[c], uint32(v))
	}
	for v, c := range comp {
		if labels[v] != largest[c] {
			t.Fatalf("vertex %d: label %d, want %d, the largest ID of its component", v, labels[v], largest[c])
		}
	}
}
