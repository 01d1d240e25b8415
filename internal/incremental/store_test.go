package incremental_test

import (
	"fmt"
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

func TestStoreCommitAndLookup(t *testing.T) {
	s := incremental.NewStore(0)
	if !s.Capture("bfs", &incremental.Entry{Kind: incremental.KindBFS, Epoch: 0, Levels: []int16{0}}) {
		t.Fatal("capture at current epoch rejected")
	}
	s.Commit(0, 1, []incremental.EdgeOp{{Src: 1, Dst: 2}})
	s.Commit(1, 2, []incremental.EdgeOp{{Del: true, Src: 3, Dst: 4}, {Src: 1, Dst: 5}})

	e, d, reason := s.Lookup("bfs", 2)
	if reason != "" {
		t.Fatalf("lookup: %s", reason)
	}
	if e.Epoch != 0 || d.FromEpoch != 0 || d.ToEpoch != 2 {
		t.Fatalf("delta spans %d..%d from entry epoch %d", d.FromEpoch, d.ToEpoch, e.Epoch)
	}
	if len(d.Ops) != 3 {
		t.Fatalf("flattened ops = %d, want 3", len(d.Ops))
	}
}

func TestStoreLineageBreakDropsEverything(t *testing.T) {
	s := incremental.NewStore(0)
	s.Capture("bfs", &incremental.Entry{Kind: incremental.KindBFS, Epoch: 0})
	s.Commit(0, 1, nil)
	// A commit whose prev does not extend the lineage (missed commit, or a
	// recovered graph reusing LSNs) must wipe chain and entries.
	s.Commit(5, 6, nil)
	if s.Len() != 0 {
		t.Fatalf("entries survived a lineage break: %d", s.Len())
	}
	if _, _, reason := s.Lookup("bfs", 6); reason == "" {
		t.Fatal("lookup served across a lineage break")
	}
	if s.Epoch() != 6 {
		t.Fatalf("epoch = %d, want 6", s.Epoch())
	}
}

func TestStoreCaptureRejectsStaleEpoch(t *testing.T) {
	s := incremental.NewStore(0)
	s.Commit(0, 1, nil)
	// A run that raced an ingest commit carries the pre-commit epoch and
	// must be discarded.
	if s.Capture("bfs", &incremental.Entry{Kind: incremental.KindBFS, Epoch: 0}) {
		t.Fatal("stale-epoch capture accepted")
	}
	if s.Len() != 0 {
		t.Fatal("stale entry stored")
	}
}

func TestStoreChainTrimDropsUnreplayableEntries(t *testing.T) {
	s := incremental.NewStore(0)
	s.Capture("old", &incremental.Entry{Kind: incremental.KindCC, Epoch: 0})
	for i := 0; i < incremental.DefaultMaxChain+5; i++ {
		s.Commit(uint64(i), uint64(i+1), nil)
	}
	if _, _, reason := s.Lookup("old", s.Epoch()); reason == "" {
		t.Fatal("entry older than the chain window still served")
	}
	if s.Len() != 0 {
		t.Fatalf("unreplayable entry retained: %d", s.Len())
	}
	// A fresh capture at the current epoch still works.
	cur := s.Epoch()
	if !s.Capture("new", &incremental.Entry{Kind: incremental.KindCC, Epoch: cur}) {
		t.Fatal("current-epoch capture rejected after trim")
	}
	if _, d, reason := s.Lookup("new", cur); reason != "" || len(d.Ops) != 0 {
		t.Fatal("current-epoch entry should yield an empty delta")
	}
}

// TestStoreLookupStopsAtSnapshot: a job admitted at epoch 0 can plan after
// the store has committed epoch 1. Its lookup must hand it the delta up to
// epoch 0 only — each of epoch 1's inserts joins two components the job's
// snapshot keeps apart — and must refuse an entry captured at epoch 1.
func TestStoreLookupStopsAtSnapshot(t *testing.T) {
	h := newHarness(t, testSpec)
	g0 := h.mg.Snapshot()
	o0 := computeOracle(t, g0, nil)
	h.capture(t, o0)
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
		prior, d, reason := h.st.Lookup("cc", uint64(at))
		if reason != "" {
			t.Fatalf("cc lookup at epoch %d: %s", at, reason)
		}
		if d.ToEpoch != uint64(at) || len(d.Ops) != 8*at {
			t.Fatalf("cc delta at epoch %d ends at %d with %d ops", at, d.ToEpoch, len(d.Ops))
		}
		k, reason := incremental.PlanCC(g, prior, d)
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

	h.capture(t, computeOracle(t, h.mg.Snapshot(), nil))
	for _, key := range []string{"bfs", "cc"} {
		if _, _, reason := h.st.Lookup(key, 0); reason != "entry-after-snapshot" {
			t.Errorf("%s lookup at epoch 0 of an epoch-1 entry: reason %q", key, reason)
		}
	}
}

// TestStoreBoundsEntries: the store holds at most MaxEntries keys. Capturing
// more without a commit in between (a BFS from every source of a graph nobody
// ingests into) evicts the entries captured longest ago and keeps the newest.
func TestStoreBoundsEntries(t *testing.T) {
	s := incremental.NewStore(0)
	total := incremental.MaxEntries + 8
	for i := 0; i < total; i++ {
		if !s.Capture(fmt.Sprint("bfs?", i), &incremental.Entry{Kind: incremental.KindBFS, FullPages: int64(i)}) {
			t.Fatalf("capture %d rejected", i)
		}
	}
	if s.Len() != incremental.MaxEntries {
		t.Fatalf("Len() = %d after %d captures, want the bound %d", s.Len(), total, incremental.MaxEntries)
	}
	for i := 0; i < total; i++ {
		e, _, reason := s.Lookup(fmt.Sprint("bfs?", i), 0)
		ok := reason == ""
		if want := i >= 8; ok != want {
			t.Fatalf("key %d retained = %v, want %v (the 8 oldest go)", i, ok, want)
		}
		if ok && e.FullPages != int64(i) {
			t.Fatalf("key %d holds entry %d", i, e.FullPages)
		}
	}
	// Re-capturing a held key replaces it in place and makes it the newest:
	// nothing is evicted for it, and the next new key evicts key 9, not key 8.
	s.Capture("bfs?8", &incremental.Entry{Kind: incremental.KindBFS, FullPages: 8})
	s.Capture("bfs?new", &incremental.Entry{Kind: incremental.KindBFS})
	if _, _, reason := s.Lookup("bfs?8", 0); reason != "" || s.Len() != incremental.MaxEntries {
		t.Fatalf("re-captured key evicted (%q, Len %d)", reason, s.Len())
	}
	if _, _, reason := s.Lookup("bfs?9", 0); reason == "" {
		t.Fatal("the oldest capture survived a new key at the bound")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[incremental.Kind]string{
		incremental.KindBFS: "bfs", incremental.KindCC: "cc",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if incremental.Kind(99).String() != "unknown" {
		t.Fatal("unknown kind not reported")
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

	bfsEntry := &incremental.Entry{Kind: incremental.KindBFS, Levels: lv}
	ccEntry := &incremental.Entry{Kind: incremental.KindCC, Labels: labels}

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
		plan   func(d incremental.Delta) string
		delta  incremental.Delta
		reason string
	}{
		{"bfs-wrong-kind", func(d incremental.Delta) string {
			_, r := incremental.PlanBFS(g, ccEntry, d)
			return r
		}, incremental.Delta{}, "wrong-kind"},
		{"bfs-tight-delete", func(d incremental.Delta) string {
			_, r := incremental.PlanBFS(g, bfsEntry, d)
			return r
		}, incremental.Delta{Ops: []gts.EdgeOp{tight}}, "tight-delete"},
		{"cc-any-delete", func(d incremental.Delta) string {
			_, r := incremental.PlanCC(g, ccEntry, d)
			return r
		}, incremental.Delta{Ops: []gts.EdgeOp{{Del: true, Src: 1, Dst: 2}}}, "delete"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if r := tc.plan(tc.delta); r != tc.reason {
				t.Fatalf("reason = %q, want %q", r, tc.reason)
			}
		})
	}
}

const unvisitedLevel = int16(-1)
