package incremental_test

import (
	"testing"

	gts "repro"
	"repro/internal/incremental"
)

func openBase(t testing.TB) *gts.Graph {
	t.Helper()
	g, err := gts.Open(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStoreCommitAndLookup: Delta flattens the commits between two epochs,
// in commit order, and replays from any epoch the chain still spans.
func TestStoreCommitAndLookup(t *testing.T) {
	s := incremental.NewStore(0)
	s.Commit(0, 1, []incremental.EdgeOp{{Src: 1, Dst: 2}})
	s.Commit(1, 2, []incremental.EdgeOp{{Del: true, Src: 3, Dst: 4}, {Src: 1, Dst: 5}})

	ops, ok := s.Delta(0, 2)
	if !ok || len(ops) != 3 || ops[0] != (incremental.EdgeOp{Src: 1, Dst: 2}) {
		t.Fatalf("Delta(0, 2) = %v, %v; want the 3 ops in commit order", ops, ok)
	}
	if ops, ok := s.Delta(1, 2); !ok || len(ops) != 2 {
		t.Fatalf("Delta(1, 2) = %v, %v; want epoch 2's 2 ops", ops, ok)
	}
	if ops, ok := s.Delta(2, 2); !ok || len(ops) != 0 {
		t.Fatalf("Delta(2, 2) = %v, %v; want no ops", ops, ok)
	}
}

func TestStoreLineageBreakDropsEverything(t *testing.T) {
	s := incremental.NewStore(0)
	s.Commit(0, 1, nil)
	// A commit whose prev does not extend the lineage (missed commit, or a
	// recovered graph reusing LSNs) must drop the chain.
	s.Commit(5, 6, nil)
	for _, from := range []uint64{0, 1} {
		if _, ok := s.Delta(from, 6); ok {
			t.Fatalf("Delta(%d, 6) replayed across a lineage break", from)
		}
	}
	if _, ok := s.Delta(5, 6); !ok {
		t.Fatal("the commit after the break cannot be replayed")
	}

	// A break that reuses epochs: the commits before it must not be
	// replayed as if they led to the new ones.
	s = incremental.NewStore(0)
	s.Commit(0, 1, nil)
	s.Commit(1, 2, []incremental.EdgeOp{{Src: 1, Dst: 2}})
	s.Commit(1, 2, []incremental.EdgeOp{{Src: 3, Dst: 4}})
	if _, ok := s.Delta(0, 2); ok {
		t.Fatal("Delta(0, 2) replayed across a break that reused epoch 2")
	}
	if ops, ok := s.Delta(1, 2); !ok || len(ops) != 1 || ops[0].Src != 3 {
		t.Fatalf("Delta(1, 2) = %v, %v; want the commit after the break", ops, ok)
	}
}

func TestStoreChainTrimDropsUnreplayableEntries(t *testing.T) {
	s := incremental.NewStore(0)
	for i := 0; i < incremental.MaxChain+5; i++ {
		s.Commit(uint64(i), uint64(i+1), []incremental.EdgeOp{{Src: uint64(i), Dst: uint64(i + 1)}})
	}
	cur := uint64(incremental.MaxChain + 5)
	if _, ok := s.Delta(0, cur); ok {
		t.Fatal("an epoch older than the chain window still replays")
	}
	if ops, ok := s.Delta(5, cur); !ok || len(ops) != incremental.MaxChain {
		t.Fatalf("Delta(5, %d) = %d ops, %v; want the whole %d-commit window", cur, len(ops), ok, incremental.MaxChain)
	}
	// A prior at the current epoch needs nothing from the chain.
	if ops, ok := s.Delta(cur, cur); !ok || len(ops) != 0 {
		t.Fatal("a current-epoch prior should yield an empty delta")
	}
}

// TestStoreLookupStopsAtSnapshot: a job admitted at epoch 0 can plan after
// the store has committed epoch 1. Its delta must stop at epoch 0 — each of
// epoch 1's inserts joins two components the job's snapshot keeps apart —
// and a prior computed at epoch 1 cannot be replayed back to epoch 0.
func TestStoreLookupStopsAtSnapshot(t *testing.T) {
	h := newHarness(t, testSpec)
	g0 := h.mg.Snapshot()
	o0 := computeOracle(t, g0, nil)
	h.capture(o0)
	var reps []uint64 // one vertex per epoch-0 component
	seen := make(map[uint32]bool)
	for v, l := range o0.labels {
		if !seen[l] {
			seen[l] = true
			reps = append(reps, uint64(v))
		}
	}
	if len(reps) < 2 {
		t.Fatalf("%s is one component", testSpec)
	}
	var ops []gts.EdgeOp
	for i := 0; i < 8; i++ {
		ops = append(ops, gts.EdgeOp{Src: reps[i%len(reps)], Dst: reps[(i+1)%len(reps)]})
	}
	h.ingest(t, ops)

	for at, g := range []*gts.Graph{g0, h.mg.Snapshot()} {
		d := h.delta(t, uint64(at))
		if len(d) != 8*at {
			t.Fatalf("cc delta at epoch %d has %d ops", at, len(d))
		}
		k, reason := incremental.PlanCC(g, o0.labels, d)
		if reason != "" {
			t.Fatalf("cc plan at epoch %d: %s", at, reason)
		}
		st, _ := runKernel(t, g, k, 0, nil)
		want := computeOracle(t, g, nil)
		if i := cmpLabels(want.labels, k.Components(st)); i >= 0 {
			t.Fatalf("cc at epoch %d diverges at vertex %d: full=%d inc=%d",
				at, i, want.labels[i], k.Components(st)[i])
		}
	}

	if _, ok := h.st.Delta(1, 0); ok {
		t.Error("an epoch-1 prior replays back to epoch 0")
	}
}

// TestPlannerFallbackReasons pins the invalidation matrix: each unsafe
// delta shape must be refused with its documented reason.
func TestPlannerFallbackReasons(t *testing.T) {
	g := openBase(t)
	n := g.NumVertices()
	lv := make([]int16, n)
	for i := range lv {
		lv[i] = unvisitedLevel
	}
	g.NeighborsOf(0, func(dst uint64) { lv[dst] = 1 })
	lv[0] = 0 // after the neighbor sweep: a self-loop must not overwrite the source level
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}

	var tight gts.EdgeOp
	found := false
	g.NeighborsOf(0, func(dst uint64) {
		if !found && dst != 0 && lv[dst] == 1 {
			tight = gts.EdgeOp{Del: true, Src: 0, Dst: dst}
			found = true
		}
	})
	if !found {
		t.Skip("source 0 has no out-edges in the test graph")
	}

	cases := []struct {
		name   string
		plan   func(ops []gts.EdgeOp) string
		ops    []gts.EdgeOp
		reason string
	}{
		{"bfs-tight-delete", func(ops []gts.EdgeOp) string {
			_, r := incremental.PlanBFS(g, lv, ops)
			return r
		}, []gts.EdgeOp{tight}, "tight-delete"},
		{"cc-any-delete", func(ops []gts.EdgeOp) string {
			_, r := incremental.PlanCC(g, labels, ops)
			return r
		}, []gts.EdgeOp{{Del: true, Src: 1, Dst: 2}}, "delete"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if r := tc.plan(tc.ops); r != tc.reason {
				t.Fatalf("reason = %q, want %q", r, tc.reason)
			}
		})
	}
}

const unvisitedLevel = int16(-1)
