package incremental_test

import (
	"slices"
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

// TestStoreCommitAndLookup: a mutable graph's Delta flattens the batches it
// applied between two epochs, in commit order, and never hands back an op
// past the epoch asked for.
func TestStoreCommitAndLookup(t *testing.T) {
	h := newHarness(t, testSpec)
	first := []gts.EdgeOp{{Src: 1, Dst: 2}}
	second := []gts.EdgeOp{{Del: true, Src: 3, Dst: 4}, {Src: 1, Dst: 5}}
	h.ingest(t, first)
	h.ingest(t, second)

	for _, c := range []struct {
		from, at uint64
		want     []gts.EdgeOp
	}{
		{0, 2, append(slices.Clone(first), second...)},
		{0, 1, first},
		{1, 2, second},
		{2, 2, nil},
	} {
		if ops, ok := h.mg.Delta(c.from, c.at); !ok || !slices.Equal(ops, c.want) {
			t.Fatalf("Delta(%d, %d) = %v, %v; want %v", c.from, c.at, ops, ok, c.want)
		}
	}
	if _, ok := h.mg.Delta(0, 3); ok {
		t.Fatal("Delta replays to an epoch the graph never reached")
	}
}

// TestStoreChainTrimDropsUnreplayableEntries: the chain keeps the last 64
// batches, so after 65 a prior at epoch 0 is refused and one at epoch 1
// replays the whole window.
func TestStoreChainTrimDropsUnreplayableEntries(t *testing.T) {
	const window = 64
	h := newHarness(t, testSpec)
	for i := uint64(0); i <= window; i++ {
		h.ingest(t, []gts.EdgeOp{{Src: i, Dst: i + 1}})
	}
	cur := h.mg.Epoch()
	if cur != window+1 {
		t.Fatalf("epoch %d after %d ingests", cur, window+1)
	}
	if _, ok := h.mg.Delta(0, cur); ok {
		t.Fatal("an epoch older than the chain window still replays")
	}
	if ops, ok := h.mg.Delta(1, cur); !ok || len(ops) != window || ops[0].Src != 1 {
		t.Fatalf("Delta(1, %d) = %d ops, %v; want the whole %d-batch window", cur, len(ops), ok, window)
	}
	// A prior at the current epoch needs nothing from the chain.
	if ops, ok := h.mg.Delta(cur, cur); !ok || len(ops) != 0 {
		t.Fatal("a current-epoch prior should yield an empty delta")
	}
}

// TestStoreLookupStopsAtSnapshot: a job admitted at epoch 0 can plan after
// the graph has committed epoch 1. Its delta must stop at epoch 0 — each of
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

	if _, ok := h.mg.Delta(1, 0); ok {
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
