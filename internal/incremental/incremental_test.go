package incremental_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	gts "repro"
	"repro/internal/incremental"
	"repro/internal/kernels"
)

const (
	testSpec  = "RMAT27@20" // 2^7 = 128 vertices, 4 KiB pages
	bfsSource = uint64(0)
)

// chaosPlan is the fault plan the faulted differential lane runs under.
func chaosPlan() *gts.FaultPlan {
	return &gts.FaultPlan{Seed: 7, TransferErrorRate: 0.05, TransferStallRate: 0.05,
		StorageErrorRate: 0.05, CorruptionRate: 0.05}
}

// harness couples a mutable graph with a retained-state store wired the
// way the service wires them: every ingest commit extends the store's
// chain with the batch (harness.ingest).
type harness struct {
	mg *gts.MutableGraph
	st *incremental.Store
}

func newHarness(t testing.TB, spec string) *harness {
	t.Helper()
	mg, err := gts.OpenMutable(spec, filepath.Join(t.TempDir(), "g.wal"), gts.MutableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	return &harness{mg: mg, st: incremental.NewStore(mg.Epoch())}
}

// ingest commits ops to the graph and then to the store's chain, as the
// service's Ingest does under the graph's commit lock.
func (h *harness) ingest(t testing.TB, ops []gts.EdgeOp) {
	t.Helper()
	prev := h.mg.Epoch()
	epoch, err := h.mg.Ingest(ops)
	if err != nil {
		t.Fatal(err)
	}
	h.st.Commit(prev, epoch, ops)
}

func runKernel(t testing.TB, g *gts.Graph, k gts.Kernel, source uint64, faults *gts.FaultPlan) (gts.KernelState, gts.Metrics) {
	t.Helper()
	sys, err := gts.NewSystem(g, gts.Config{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	st, m, err := sys.RunKernel(k, source)
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

// oracle is one epoch's from-scratch truth for both algorithms.
type oracle struct {
	levels   []int16
	labels   []uint32
	bfsPages int64
	ccPages  int64
}

func computeOracle(t testing.TB, g *gts.Graph, faults *gts.FaultPlan) *oracle {
	t.Helper()
	var o oracle
	bk := kernels.NewBFS(g)
	st, m := runKernel(t, g, bk, bfsSource, faults)
	o.levels = append([]int16(nil), bk.Levels(st)...)
	o.bfsPages = m.PagesStreamed
	ck := kernels.NewCC(g)
	st, m = runKernel(t, g, ck, 0, faults)
	o.labels = append([]uint32(nil), ck.Components(st)...)
	o.ccPages = m.PagesStreamed
	return &o
}

// capture retains the oracle's state in the store at the current epoch,
// exactly what the service does after a full run.
func (h *harness) capture(t testing.TB, o *oracle) {
	t.Helper()
	epoch := h.mg.Epoch()
	if !h.st.Capture("bfs", &incremental.Entry{Kind: incremental.KindBFS, Epoch: epoch,
		Levels: o.levels, FullPages: o.bfsPages}) {
		t.Fatalf("bfs capture rejected at epoch %d", epoch)
	}
	if !h.st.Capture("cc", &incremental.Entry{Kind: incremental.KindCC, Epoch: epoch,
		Labels: o.labels, FullPages: o.ccPages}) {
		t.Fatalf("cc capture rejected at epoch %d", epoch)
	}
}

func cmpLevels(a, b []int16) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func cmpLabels(a, b []uint32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// script is a deterministic ingest sequence against a base spec.
type script struct {
	spec    string
	batches [][]gts.EdgeOp
}

// tally counts per-algorithm incremental outcomes across a replay.
type tally struct{ hits, fallbacks map[string]int }

func newTally() *tally {
	return &tally{hits: make(map[string]int), fallbacks: make(map[string]int)}
}

// replayCheck replays sc on a fresh harness and verifies, after every
// batch, that every plannable incremental run is byte-identical to the
// from-scratch oracle. It returns "" on full
// equivalence or a description of the first divergence (engine errors
// still fail t directly). State is captured from the oracle after each
// epoch, so each incremental run spans exactly one commit unless
// captureEvery > 1.
func replayCheck(t testing.TB, sc script, faults *gts.FaultPlan, captureEvery int, tl *tally) string {
	t.Helper()
	if captureEvery <= 0 {
		captureEvery = 1
	}
	if tl == nil {
		tl = newTally()
	}
	h := newHarness(t, sc.spec)
	o := computeOracle(t, h.mg.Snapshot(), faults)
	h.capture(t, o)

	for bi, ops := range sc.batches {
		h.ingest(t, ops)
		snap := h.mg.Snapshot()
		o = computeOracle(t, snap, faults)

		if prior, delta, reason := h.st.Lookup("bfs", h.mg.Epoch()); reason == "" {
			if _, reason := incremental.PlanBFS(snap, prior, delta); reason != "" {
				tl.fallbacks["bfs"]++
			} else {
				tl.hits["bfs"]++
				k, _ := incremental.PlanBFS(snap, prior, delta)
				st, _ := runKernel(t, snap, k, bfsSource, faults)
				if i := cmpLevels(o.levels, k.Levels(st)); i >= 0 {
					return fmt.Sprintf("batch %d: bfs diverges at vertex %d: full=%d inc=%d",
						bi, i, o.levels[i], k.Levels(st)[i])
				}
			}
		}
		if prior, delta, reason := h.st.Lookup("cc", h.mg.Epoch()); reason == "" {
			if _, reason := incremental.PlanCC(snap, prior, delta); reason != "" {
				tl.fallbacks["cc"]++
			} else {
				tl.hits["cc"]++
				k, _ := incremental.PlanCC(snap, prior, delta)
				st, _ := runKernel(t, snap, k, 0, faults)
				if i := cmpLabels(o.labels, k.Components(st)); i >= 0 {
					return fmt.Sprintf("batch %d: cc diverges at vertex %d: full=%d inc=%d",
						bi, i, o.labels[i], k.Components(st)[i])
				}
			}
		}
		if (bi+1)%captureEvery == 0 {
			h.capture(t, o)
		}
	}
	return ""
}

// edgeModel shadows the graph's edge multiset so scripts can delete edges
// that actually exist.
type edgeModel struct {
	n     uint64
	edges [][2]uint64
}

func newEdgeModel(t testing.TB, spec string) *edgeModel {
	t.Helper()
	g, err := gts.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := &edgeModel{n: g.NumVertices()}
	for v := uint64(0); v < g.NumVertices(); v++ {
		g.NeighborsOf(v, func(dst uint64) { m.edges = append(m.edges, [2]uint64{v, dst}) })
	}
	return m
}

func (m *edgeModel) apply(op gts.EdgeOp) {
	if op.Del {
		kept := m.edges[:0]
		for _, e := range m.edges {
			if e[0] != op.Src || e[1] != op.Dst {
				kept = append(kept, e)
			}
		}
		m.edges = kept
		return
	}
	m.edges = append(m.edges, [2]uint64{op.Src, op.Dst})
	if op.Src >= m.n {
		m.n = op.Src + 1
	}
	if op.Dst >= m.n {
		m.n = op.Dst + 1
	}
}

// genScript builds a deterministic randomized ingest script: batches of
// inserts and (existing-edge) deletes, optionally growing the vertex set.
func genScript(t testing.TB, spec string, seed int64, batches, opsPerBatch int, delFrac, growFrac float64) script {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	model := newEdgeModel(t, spec)
	sc := script{spec: spec}
	for b := 0; b < batches; b++ {
		var ops []gts.EdgeOp
		for i := 0; i < opsPerBatch; i++ {
			var op gts.EdgeOp
			switch {
			case r.Float64() < delFrac && len(model.edges) > 0:
				e := model.edges[r.Intn(len(model.edges))]
				op = gts.EdgeOp{Del: true, Src: e[0], Dst: e[1]}
			case r.Float64() < growFrac:
				op = gts.EdgeOp{Src: uint64(r.Int63n(int64(model.n))), Dst: model.n}
			default:
				op = gts.EdgeOp{Src: uint64(r.Int63n(int64(model.n))), Dst: uint64(r.Int63n(int64(model.n)))}
			}
			model.apply(op)
			ops = append(ops, op)
		}
		sc.batches = append(sc.batches, ops)
	}
	return sc
}

// TestDifferentialRandomScripts is the equivalence suite: randomized
// ingest scripts, incremental vs from-scratch for BFS and CC, clean
// and fault-injected. A divergence is delta-debugged down to a minimal
// failing script before reporting.
func TestDifferentialRandomScripts(t *testing.T) {
	cases := []struct {
		name             string
		seed             int64
		delFrac, grow    float64
		faults           *gts.FaultPlan
		captureEvery     int
		wantHits         []string // algos that must hit at least once
		wantFallbacks    []string // algos that must fall back at least once
		batches, perSize int
	}{
		{name: "clean-insert-only", seed: 1, delFrac: 0, grow: 0, captureEvery: 1,
			wantHits: []string{"bfs", "cc"}, batches: 5, perSize: 8},
		{name: "clean-mixed-deletes", seed: 2, delFrac: 0.4, grow: 0, captureEvery: 1,
			wantFallbacks: []string{"cc"}, batches: 5, perSize: 8},
		{name: "clean-growth", seed: 3, delFrac: 0.2, grow: 0.3, captureEvery: 1,
			batches: 4, perSize: 6},
		{name: "clean-multi-commit-delta", seed: 4, delFrac: 0, grow: 0, captureEvery: 2,
			wantHits: []string{"bfs", "cc"}, batches: 6, perSize: 5},
		{name: "faulted-insert-only", seed: 5, delFrac: 0, grow: 0, faults: chaosPlan(), captureEvery: 1,
			wantHits: []string{"bfs", "cc"}, batches: 3, perSize: 8},
		{name: "faulted-mixed", seed: 6, delFrac: 0.4, grow: 0.1, faults: chaosPlan(), captureEvery: 1,
			batches: 3, perSize: 8},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := genScript(t, testSpec, tc.seed, tc.batches, tc.perSize, tc.delFrac, tc.grow)
			tl := newTally()
			if diag := replayCheck(t, sc, tc.faults, tc.captureEvery, tl); diag != "" {
				min := minimizeScript(sc, func(cand script) bool {
					return replayCheck(t, cand, tc.faults, tc.captureEvery, nil) != ""
				})
				t.Fatalf("divergence: %s\nminimized script (%d batches): %v", diag, len(min.batches), min.batches)
			}
			for _, algo := range tc.wantHits {
				if tl.hits[algo] == 0 {
					t.Errorf("expected at least one %s incremental hit, got none (fallbacks=%d)", algo, tl.fallbacks[algo])
				}
			}
			for _, algo := range tc.wantFallbacks {
				if tl.fallbacks[algo] == 0 {
					t.Errorf("expected at least one %s fallback, got none (hits=%d)", algo, tl.hits[algo])
				}
			}
		})
	}
}

// TestSameEpochRequery proves the trivial delta: a retained entry at the
// current epoch replans to a run that streams zero topology pages and
// reproduces the retained answer bitwise.
func TestSameEpochRequery(t *testing.T) {
	h := newHarness(t, testSpec)
	h.ingest(t, []gts.EdgeOp{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	snap := h.mg.Snapshot()
	o := computeOracle(t, snap, nil)
	h.capture(t, o)

	prior, delta, reason := h.st.Lookup("bfs", h.mg.Epoch())
	if reason != "" {
		t.Fatalf("bfs lookup: %s", reason)
	}
	k, reason := incremental.PlanBFS(snap, prior, delta)
	if reason != "" {
		t.Fatalf("empty-delta bfs fell back: %s", reason)
	}
	st, m := runKernel(t, snap, k, bfsSource, nil)
	if i := cmpLevels(o.levels, k.Levels(st)); i >= 0 {
		t.Fatalf("bfs requery diverges at %d", i)
	}
	if m.PagesStreamed != 0 {
		t.Fatalf("empty-delta bfs streamed %d pages, want 0", m.PagesStreamed)
	}

	cprior, cdelta, _ := h.st.Lookup("cc", h.mg.Epoch())
	ck, reason := incremental.PlanCC(snap, cprior, cdelta)
	if reason != "" {
		t.Fatalf("empty-delta cc fell back: %s", reason)
	}
	st, m = runKernel(t, snap, ck, 0, nil)
	if i := cmpLabels(o.labels, ck.Components(st)); i >= 0 {
		t.Fatalf("cc requery diverges at %d", i)
	}
	if m.PagesStreamed != 0 {
		t.Fatalf("empty-delta cc streamed %d pages, want 0", m.PagesStreamed)
	}
}

// minimizeScript delta-debugs a failing ingest script: first drop batch
// ranges, then op ranges inside each batch, re-testing after every
// candidate until a fixpoint (same shrink loop as bufpool's
// minimizeScript).
func minimizeScript(sc script, fails func(script) bool) script {
	// Batch-level passes.
	for {
		shrunk := false
		for sz := len(sc.batches) / 2; sz >= 1; sz /= 2 {
			for i := 0; i+sz <= len(sc.batches); i++ {
				cand := script{spec: sc.spec}
				cand.batches = append(cand.batches, sc.batches[:i]...)
				cand.batches = append(cand.batches, sc.batches[i+sz:]...)
				if len(cand.batches) > 0 && fails(cand) {
					sc = cand
					shrunk = true
					i--
				}
			}
		}
		if !shrunk {
			break
		}
	}
	// Op-level passes within each surviving batch.
	for {
		shrunk := false
		for bi := range sc.batches {
			for sz := len(sc.batches[bi]) / 2; sz >= 1; sz /= 2 {
				for i := 0; i+sz <= len(sc.batches[bi]); i++ {
					cand := script{spec: sc.spec, batches: make([][]gts.EdgeOp, len(sc.batches))}
					copy(cand.batches, sc.batches)
					ops := append([]gts.EdgeOp(nil), sc.batches[bi][:i]...)
					ops = append(ops, sc.batches[bi][i+sz:]...)
					cand.batches[bi] = ops
					if len(ops) > 0 && fails(cand) {
						sc = cand
						shrunk = true
						i--
					}
				}
			}
		}
		if !shrunk {
			break
		}
	}
	return sc
}

// TestMinimizeScript sanity-checks the delta-debugger on a synthetic
// predicate: failure iff the script still contains a marker op. The
// minimum must be exactly one batch of one op.
func TestMinimizeScript(t *testing.T) {
	marker := gts.EdgeOp{Src: 42, Dst: 43}
	var sc script
	r := rand.New(rand.NewSource(9))
	for b := 0; b < 6; b++ {
		var ops []gts.EdgeOp
		for i := 0; i < 10; i++ {
			ops = append(ops, gts.EdgeOp{Src: uint64(r.Intn(40)), Dst: uint64(r.Intn(40))})
		}
		if b == 3 {
			ops[5] = marker
		}
		sc.batches = append(sc.batches, ops)
	}
	min := minimizeScript(sc, func(cand script) bool {
		for _, b := range cand.batches {
			for _, op := range b {
				if op == marker {
					return true
				}
			}
		}
		return false
	})
	if len(min.batches) != 1 || len(min.batches[0]) != 1 || min.batches[0][0] != marker {
		t.Fatalf("minimization did not reach the 1-op core: %v", min.batches)
	}
}
