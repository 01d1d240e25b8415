package kernels

import (
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// The merge-algebra tests pin Strategy-P's correctness contract in
// isolation: replicas that each process a disjoint page subset must merge
// to exactly the state a single replica produces processing everything.

// splitDrive runs one level/iteration of kernel k with the page set split
// across n replicas, merges, and returns replica 0's state; whole runs the
// same pages on one state for comparison.
func splitDrive(t *testing.T, k Kernel, g *slottedpage.Graph, source uint64, n int) (split, whole State) {
	t.Helper()
	run := func(st State, pids []slottedpage.PageID) {
		local := bitset.New(g.NumPages())
		for _, pid := range pids {
			a := &Args{
				Graph: g, PID: pid, Page: g.Page(pid), State: st,
				OwnedLo: 0, OwnedHi: g.NumVertices(), Tech: EdgeCentric, NextPIDs: local,
			}
			k.Run(a)
		}
	}
	var allPages []slottedpage.PageID
	for pid := 0; pid < g.NumPages(); pid++ {
		allPages = append(allPages, slottedpage.PageID(pid))
	}

	// Split execution.
	proto := k.NewState()
	k.Init(proto, source)
	sts := []State{proto}
	for i := 1; i < n; i++ {
		sts = append(sts, proto.Clone())
	}
	k.BeginLevel(sts, 0)
	for i, st := range sts {
		var mine []slottedpage.PageID
		for _, pid := range allPages {
			if int(pid)%n == i {
				mine = append(mine, pid)
			}
		}
		run(st, mine)
	}
	k.MergeStates(sts)

	// Whole execution.
	ref := k.NewState()
	k.Init(ref, source)
	k.BeginLevel([]State{ref}, 0)
	run(ref, allPages)
	return sts[0], ref
}

func TestMergeAlgebraPageRank(t *testing.T) {
	_, sp := driverGraph(t)
	k := NewPageRank(sp, 0.85, 1)
	split, whole := splitDrive(t, k, sp, 0, 3)
	a, b := split.(*prState).nextPR, whole.(*prState).nextPR
	for v := range a {
		if math.Abs(float64(a[v]-b[v])) > 1e-6 {
			t.Fatalf("vertex %d: split %v vs whole %v", v, a[v], b[v])
		}
	}
}

func TestMergeAlgebraBFSFirstLevel(t *testing.T) {
	_, sp := driverGraph(t)
	k := NewBFS(sp)
	split, whole := splitDrive(t, k, sp, 0, 2)
	a, b := split.(*bfsState).lv, whole.(*bfsState).lv
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("vertex %d: split %d vs whole %d", v, a[v], b[v])
		}
	}
}

func TestMergeAlgebraCC(t *testing.T) {
	_, sp := driverGraph(t)
	k := NewCC(sp)
	split, whole := splitDrive(t, k, sp, 0, 4)
	a, b := split.(*ccState).next, whole.(*ccState).next
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("vertex %d: split %d vs whole %d", v, a[v], b[v])
		}
	}
}

func TestMergeAlgebraRadius(t *testing.T) {
	_, sp := driverGraph(t)
	k := NewRadius(sp, 4, 8)
	split, whole := splitDrive(t, k, sp, 0, 3)
	a, b := split.(*radiusState).next, whole.(*radiusState).next
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sketch word %d: split %x vs whole %x", i, a[i], b[i])
		}
	}
}

func TestMergeAlgebraKCore(t *testing.T) {
	_, sp := driverGraph(t)
	k := NewKCore(sp, 4)
	split, whole := splitDrive(t, k, sp, 0, 2)
	a, b := split.(*kcoreState).count, whole.(*kcoreState).count
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("vertex %d: split %d vs whole %d", v, a[v], b[v])
		}
	}
}

func TestMergeSingleReplicaIsNoop(t *testing.T) {
	_, sp := driverGraph(t)
	for _, k := range []Kernel{NewBFS(sp), NewPageRank(sp, 0.85, 1), NewSSSP(sp), NewCC(sp), NewBC(sp), NewRWR(sp, 0.15, 1), NewKCore(sp, 3), NewRadius(sp, 4, 4), NewDegreeDist(sp), NewCrossEdges(sp, func(v uint64) bool { return v%2 == 0 })} {
		st := k.NewState()
		k.Init(st, 0)
		k.MergeStates([]State{st}) // must not panic or mutate
	}
}
