package kernels

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
	"repro/internal/verify"
)

// TestDriverDirBFS drives the direction-optimizing BFS through the
// package-local framework loop in every mode against the float-free
// reference. The kernel must hold the graph's reverse index after a run
// exactly when some level pulled: a push-only traversal never fetches it.
func TestDriverDirBFS(t *testing.T) {
	g, sp := driverGraph(t)
	want := verify.BFS(g, 0)
	for _, mode := range []DirMode{DirAuto, DirForcePush, DirForcePull} {
		k := NewDirBFS(sp)
		k.SetMode(mode)
		if k.rev != nil {
			t.Fatalf("mode=%v: NewDirBFS fetched the reverse index", mode)
		}
		st := drive(t, k, sp, 0)
		got := k.Levels(st)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("mode=%v: vertex %d level = %d, want %d", mode, v, got[v], want[v])
			}
		}
		if fetched := k.rev != nil; fetched != (mode != DirForcePush) {
			t.Fatalf("mode=%v: reverse index fetched = %v", mode, fetched)
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

// TestOutDegrees: the graph's out-degree table, read off ADJLIST_SZ,
// matches the forward graph, and every DirBFS on the graph shares it.
func TestOutDegrees(t *testing.T) {
	g, sp := driverGraph(t)
	a, b := NewDirBFS(sp), NewDirBFS(sp)
	if a.outDeg != b.outDeg {
		t.Fatal("two DirBFS kernels on one graph built two out-degree tables")
	}
	for v := uint64(0); v < sp.NumVertices(); v++ {
		if d := a.outDeg.Of(v); int(d) != g.Degree(v) {
			t.Fatalf("vertex %d outDeg = %d, want %d", v, d, g.Degree(v))
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
	MarkVertexPages(sp, small, set, true)
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
	MarkVertexPages(sp, large, expanded, true)
	if got := expanded.Count(); got != runLen {
		t.Errorf("expandLP marked %d pages of vertex %d's run, want %d", got, large, runLen)
	}
	homeOnly := bitset.New(sp.NumPages())
	MarkVertexPages(sp, large, homeOnly, false)
	if got := homeOnly.Count(); got != 1 {
		t.Errorf("home-only marking set %d pages, want 1", got)
	}
}
