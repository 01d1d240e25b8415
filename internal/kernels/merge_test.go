package kernels

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// TestMergeAlgebra pins Strategy-P's correctness contract for every kernel
// in isolation: n replicas that each run a disjoint share of the pages
// (pid % n, so a large vertex's run lands on several replicas) merge to
// exactly the state one replica reaches running them all, and every replica
// holds it after the merge. Traversals run their first level; a planning
// kernel plans it first. A lone replica's merge changes nothing.
//
// CC lowers its labels in place, so what one superstep reaches depends on
// the order its pages run in, and a split superstep differs from a whole
// one. Its case runs both superstep by superstep to the fixpoint: the
// replicas are identical after every merge, and the final labels are the
// whole run's.
func TestMergeAlgebra(t *testing.T) {
	_, sp := driverGraph(t)
	if !hasSplitLargeVertex(sp) {
		t.Fatal("the test graph has no large vertex spanning two pages")
	}
	pull := NewDirBFS(sp)
	pull.SetMode(DirForcePull)
	levels := func(st State) []any { return []any{st.(*bfsState).lv} }
	cases := []struct {
		name string
		k    Kernel
		n    int
		vecs func(State) []any // what the merge writes
	}{
		{"BFS", NewBFS(sp), 2, levels},
		{"DirBFS", NewDirBFS(sp), 3, levels},
		{"DirBFS-pull", pull, 3, levels},
		{"SSSP", NewSSSP(sp), 3, func(st State) []any { s := st.(*ssspState); return []any{s.dist, s.front[0], s.front[1]} }},
		{"BC", NewBC(sp), 3, func(st State) []any { s := st.(*bcState); return []any{s.dist, s.sigma, s.delta} }},
		{"PageRank", NewPageRank(sp, 0.85, 1), 3, func(st State) []any { return []any{st.(*prState).nextPR} }},
		{"RWR", NewRWR(sp, 0.15, 1), 3, func(st State) []any { return []any{st.(*prState).nextPR} }},
		{"KCore", NewKCore(sp, 4), 2, func(st State) []any { return []any{st.(*kcoreState).count} }},
		{"Radius", NewRadius(sp, 4, 8), 3, func(st State) []any { s := st.(*radiusState); return []any{s.next, s.radius} }},
		{"DegreeDist", NewDegreeDist(sp), 3, func(st State) []any { return []any{st.(*degState).deg} }},
		{"CrossEdges", NewCrossEdges(sp, func(v uint64) bool { return v%2 == 0 }), 3, func(st State) []any { return []any{st.(*crossState).count} }},
	}
	start := func(k Kernel, n int) []State {
		proto := k.NewState()
		k.Init(proto, 0)
		sts := []State{proto}
		for len(sts) < n {
			sts = append(sts, proto.Clone())
		}
		if fk, ok := k.(FrontierKernel); ok {
			fk.PlanLevel(sts, 0, bitset.New(sp.NumPages()))
		}
		BeginLevel(k, sts, 0)
		return sts
	}
	run := func(k Kernel, st State, n, share int) (active bool) {
		for pid := 0; pid < sp.NumPages(); pid++ {
			if pid%n == share {
				id := slottedpage.PageID(pid)
				res := k.Run(&Args{Graph: sp, PID: id, Page: sp.Page(id), State: st,
					OwnedHi: sp.NumVertices(), Tech: EdgeCentric})
				active = active || res.Active
			}
		}
		return active
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			whole := start(tc.k, 1)
			run(tc.k, whole[0], 1, 0)
			alone := whole[0].Clone()
			tc.k.MergeStates(whole)
			sameVecs(t, "lone replica", tc.vecs(whole[0]), tc.vecs(alone))

			split := start(tc.k, tc.n)
			for i, st := range split {
				run(tc.k, st, tc.n, i)
			}
			tc.k.MergeStates(split)
			for i, st := range split {
				sameVecs(t, fmt.Sprintf("replica %d", i), tc.vecs(st), tc.vecs(whole[0]))
			}
		})
	}
	t.Run("CC", func(t *testing.T) {
		const n = 4
		k := NewCC(sp)
		whole, split := start(k, 1), start(k, n)
		for step := 0; ; step++ {
			wholeActive := run(k, whole[0], 1, 0)
			alone := whole[0].Clone()
			k.MergeStates(whole)
			if !slices.Equal(ccLabels(whole[0]), ccLabels(alone)) {
				t.Fatalf("superstep %d: a lone replica's merge changed it", step)
			}
			splitActive := false
			for i, st := range split {
				splitActive = run(k, st, n, i) || splitActive
			}
			k.MergeStates(split)
			for i, st := range split[1:] {
				if !slices.Equal(ccLabels(st), ccLabels(split[0])) {
					t.Fatalf("superstep %d: replica %d differs from replica 0 after the merge", step, i+1)
				}
			}
			if !wholeActive && !splitActive {
				break
			}
		}
		if !slices.Equal(ccLabels(split[0]), ccLabels(whole[0])) {
			t.Fatal("the split run's fixpoint differs from the whole run's")
		}
	})
}

// sameVecs fails t unless got's vectors equal want's: float32 ones (the
// rank vectors) within 1e-6, the rest exactly.
func sameVecs(t *testing.T, what string, got, want []any) {
	t.Helper()
	for i := range want {
		g, ok := got[i].([]float32)
		if !ok {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: vector %d differs from the whole run", what, i)
			}
			continue
		}
		for v, w := range want[i].([]float32) {
			if math.Abs(float64(g[v]-w)) > 1e-6 {
				t.Fatalf("%s: vector %d vertex %d: %v, want %v", what, i, v, g[v], w)
			}
		}
	}
}

// hasSplitLargeVertex reports whether some large vertex's run spans two
// pages, which a pid % n split puts on different replicas.
func hasSplitLargeVertex(g *slottedpage.Graph) bool {
	for pid := 1; pid < g.NumPages(); pid++ {
		cur, prev := slottedpage.PageID(pid), slottedpage.PageID(pid-1)
		if g.Kind(cur) == slottedpage.LargePage && g.Kind(prev) == slottedpage.LargePage &&
			g.RVT(cur).StartVID == g.RVT(prev).StartVID {
			return true
		}
	}
	return false
}
