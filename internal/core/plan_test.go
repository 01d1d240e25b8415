package core

import (
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// TestTraversalPlansMatchReferenceLevels checks every traversal's own plan
// against the sequential reference: with no device cache on one GPU, each
// level copies each planned page once, so Report.LevelPages[L] must be the
// number of pages holding a vertex at verify.BFS level L — a large vertex's
// whole run — for BFS, a hop-capped ball (levels below its cap), DirBFS
// forced to push and BC's forward pass. BC's backward sweep re-plans every
// forward level, so its run copies twice the forward pages.
func TestTraversalPlansMatchReferenceLevels(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	// Start once from vertex 0 and once from the vertex with the longest
	// large-page run.
	run := map[uint64]int{}
	hub := uint64(0)
	for _, pid := range sp.LPIDs() {
		v := sp.RVT(pid).StartVID
		if run[v]++; run[v] > run[hub] {
			hub = v
		}
	}
	if run[hub] < 2 {
		t.Fatal("the test graph has no large-page run of two pages or more")
	}
	const hops = 2
	for _, src := range []uint64{0, hub} {
		ref := verify.BFS(g, uint32(src))
		var want []int64 // pages per reference level
		for lvl := int16(0); ; lvl++ {
			pages := bitset.New(sp.NumPages())
			for v, l := range ref {
				if l == lvl {
					kernels.MarkVertexPages(sp, uint64(v), pages, true)
				}
			}
			if !pages.Any() {
				break
			}
			want = append(want, int64(pages.Count()))
		}
		if len(want) <= hops {
			t.Fatalf("source %d reaches %d levels; the ball must stop below them", src, len(want))
		}
		push := kernels.NewDirBFS(sp)
		push.SetMode(kernels.DirForcePush)
		for _, tc := range []struct {
			name string
			k    kernels.Kernel
			want []int64
		}{
			{"BFS", kernels.NewBFS(sp), want},
			{"ball", kernels.NewNeighborhood(sp, hops), want[:hops]},
			{"DirBFS push", push, want},
			{"BC", kernels.NewBC(sp), want},
		} {
			e := newEngine(t, sp, Options{CacheBytes: CacheDisabled}, 1, 0)
			outs, stats := mustRunShared(t, e, []SharedJob{{Kernel: tc.k, Source: src}})
			if outs[0].Err != nil {
				t.Fatal(outs[0].Err)
			}
			got := outs[0].LevelPages
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s from %d: pages per level %v, want %v", tc.name, src, got, tc.want)
			}
			var sum int64
			for _, n := range got {
				sum += n
			}
			copies := sum
			if _, ok := tc.k.(kernels.BackwardKernel); ok {
				copies = 2 * sum
			}
			if stats.PageCopies != copies {
				t.Errorf("%s from %d: %d page copies, want %d", tc.name, src, stats.PageCopies, copies)
			}
		}
	}
}
