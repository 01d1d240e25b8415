package gts_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	gts "repro"
	"repro/internal/csr"
	"repro/internal/incremental"
	"repro/internal/wal"
)

// incState is the prior a service's job table would hold: a full BFS(0)
// run's levels and the epoch it ran on. The ops since are the graph's own
// (MutableGraph.Delta), whose chain starts empty at every open: a
// durable-but-unacknowledged batch (a crash during the fsync) is in the
// recovered snapshot but was never applied before the crash, so a chain
// carried across the recovery could silently miss its effects.
type incState struct {
	levels []int16
	at     uint64
}

// incCapture returns BFS levels for the graph's current snapshot as the
// prior, as a completed full run would.
func incCapture(t *testing.T, mg *gts.MutableGraph) *incState {
	t.Helper()
	sys, err := gts.NewSystem(mg.Snapshot(), gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := sys.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	return &incState{levels: bfs.Levels, at: mg.Epoch()}
}

// incCheck plans from the prior against mg's snapshot: an accepted
// delta-expansion plan must produce results byte-identical to a full run (a
// refusal with a reason is a legal fallback). Returns how many plans were
// accepted.
func incCheck(t *testing.T, label string, s *incState, mg *gts.MutableGraph) int {
	t.Helper()
	g := mg.Snapshot()
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	if ops, ok := mg.Delta(s.at, mg.Epoch()); ok {
		if k, reason := incremental.PlanBFS(g, s.levels, ops); reason == "" {
			out, _, err := sys.RunKernel(k, 0)
			if err != nil {
				t.Fatalf("%s: incremental bfs: %v", label, err)
			}
			full, err := sys.BFS(0)
			if err != nil {
				t.Fatal(err)
			}
			got := k.Levels(out)
			for i := range full.Levels {
				if full.Levels[i] != got[i] {
					t.Fatalf("%s: incremental bfs diverges at vertex %d", label, i)
				}
			}
			hits++
		}
	}
	return hits
}

// testBaseGraph builds a deterministic small base graph, writes it to a
// .gts file (so OpenMutable's base spec is stable across reopens), and
// returns the spec.
func testBaseGraph(t *testing.T) string {
	t.Helper()
	const n = 96
	rng := rand.New(rand.NewSource(9))
	var edges []csr.Edge
	for v := 0; v < n; v++ {
		edges = append(edges, csr.Edge{Src: uint32(v), Dst: uint32((v + 1) % n)})
		for k := 0; k < 3; k++ {
			edges = append(edges, csr.Edge{Src: uint32(v), Dst: uint32(rng.Intn(n))})
		}
	}
	src, err := csr.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gts.BuildGraph(src, gts.ScaledPageConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(t.TempDir(), "base.gts")
	if err := g.WriteFile(spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// testBatches is the scripted mutation history the crash matrix sweeps:
// inserts, deletes, and a vertex-space grow.
func testBatches() [][]gts.EdgeOp {
	return [][]gts.EdgeOp{
		{{Src: 0, Dst: 50}, {Src: 50, Dst: 0}, {Src: 7, Dst: 7}},
		{{Del: true, Src: 0, Dst: 1}, {Src: 3, Dst: 90}},
		{{Src: 96, Dst: 0}, {Src: 0, Dst: 96}, {Del: true, Src: 7, Dst: 7}},
		{{Src: 40, Dst: 41}, {Del: true, Src: 3, Dst: 90}, {Src: 95, Dst: 96}},
	}
}

// digestAll runs every algorithm over g and hashes the result payloads
// (not the Metrics, which carry host wall-clock noise) into one digest.
func digestAll(t *testing.T, g *gts.Graph) string {
	t.Helper()
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(label string, v any, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(h, "%s=%v\n", label, v)
	}
	bfs, err := sys.BFS(0)
	put("bfs", bfs.Levels, err)
	pr, err := sys.PageRank(0.85, 5)
	put("pagerank", pr.Ranks, err)
	sp, err := sys.SSSP(0)
	put("sssp", sp.Dist, err)
	cc, err := sys.CC()
	put("cc", cc.Labels, err)
	bc, err := sys.BC(0)
	put("bc", bc.Scores, err)
	rwr, err := sys.RWR(0, 0.2, 5)
	put("rwr", rwr.Scores, err)
	dd, err := sys.DegreeDistribution()
	put("degree", [2]any{dd.Degrees, dd.Histogram}, err)
	kc, err := sys.KCore(2)
	put("kcore", kc.InCore, err)
	rad, err := sys.Radius(4, 8)
	put("radius", [2]any{rad.Radii, rad.EffectiveDiameter}, err)
	nb, err := sys.Neighborhood(0, 2)
	put("neighborhood", nb.Hops, err)
	ce, err := sys.CrossEdges(func(v uint64) bool { return v%2 == 0 })
	put("crossedges", ce.Total, err)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// oracleGraph replays batches[:n] synchronously against a fresh copy of
// the base graph (its own WAL, no faults) — the synchronous-replay oracle
// every recovered state must match byte-for-byte.
func oracleGraph(t *testing.T, spec string, batches [][]gts.EdgeOp, n int) *gts.Graph {
	t.Helper()
	m, err := gts.OpenMutable(spec, filepath.Join(t.TempDir(), "oracle.wal"), gts.MutableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < n; i++ {
		if _, err := m.Ingest(batches[i]); err != nil {
			t.Fatalf("oracle batch %d: %v", i, err)
		}
	}
	return m.Snapshot()
}

// graphsEqual asserts two graphs are byte-identical page stores.
func graphsEqual(t *testing.T, label string, got, want *gts.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d vertices / %d edges, want %d / %d",
			label, got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if got.NumPages() != want.NumPages() {
		t.Fatalf("%s: %d pages, want %d", label, got.NumPages(), want.NumPages())
	}
	for pid := 0; pid < got.NumPages(); pid++ {
		p := gts.PageID(pid)
		if got.PageChecksum(p) != want.PageChecksum(p) || !bytes.Equal(got.PageBytes(p), want.PageBytes(p)) {
			t.Fatalf("%s: page %d differs", label, pid)
		}
	}
}

// randomHistory draws k batches against a graph of n vertices. Each opens
// with an insert into a new vertex (so the vertex space grows), then mixes
// inserts among the vertices so far and up to four new ones, deletes of
// edges an earlier op inserted, deletes of edges that are mostly absent,
// and deletes naming a vertex past the current count.
func randomHistory(rng *rand.Rand, n uint64, k int) [][]gts.EdgeOp {
	var inserted []gts.EdgeOp
	batches := make([][]gts.EdgeOp, k)
	for b := range batches {
		for i := 1 + rng.Intn(12); i > 0; i-- {
			var op gts.EdgeOp
			kind := rng.Intn(6)
			if len(batches[b]) == 0 {
				kind = -1
			}
			switch kind {
			case -1:
				op = gts.EdgeOp{Src: uint64(rng.Int63n(int64(n))), Dst: n}
				inserted = append(inserted, op)
				n++
			case 0, 1, 2:
				op = gts.EdgeOp{Src: uint64(rng.Int63n(int64(n + 4))), Dst: uint64(rng.Int63n(int64(n + 4)))}
				inserted = append(inserted, op)
				n = max(n, op.Src+1, op.Dst+1)
			case 3:
				if len(inserted) > 0 {
					op = inserted[rng.Intn(len(inserted))]
				}
				op.Del = true
			case 4:
				op = gts.EdgeOp{Del: true, Src: uint64(rng.Int63n(int64(n))), Dst: uint64(rng.Int63n(int64(n)))}
			case 5:
				op = gts.EdgeOp{Del: true, Src: n + 10 + uint64(rng.Intn(50)), Dst: uint64(rng.Int63n(int64(n)))}
				if rng.Intn(2) == 0 {
					op.Src, op.Dst = op.Dst, op.Src
				}
			}
			batches[b] = append(batches[b], op)
		}
	}
	return batches
}

// TestOpenMutableReplayMatchesSequentialCommits: reopening a WAL of 1, 8 or
// 64 random batches recovers the graph that committing them one ApplyBatch
// at a time published — pages, checksums, RVT, home RIDs, edge count — at
// the same epoch.
func TestOpenMutableReplayMatchesSequentialCommits(t *testing.T) {
	spec := testBaseGraph(t)
	for _, k := range []int{1, 8, 64} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "history.wal")
			m, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			base := m.Snapshot()
			for i, ops := range randomHistory(rand.New(rand.NewSource(int64(k))), base.NumVertices(), k) {
				if _, err := m.Ingest(ops); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
			want := m.Snapshot()
			m.Close()
			if want.NumVertices() <= base.NumVertices() {
				t.Fatalf("the history did not grow the vertex space past %d", base.NumVertices())
			}
			r, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.ReplayedBatches() != k || r.Epoch() != uint64(k) {
				t.Fatalf("replayed %d batches to epoch %d, want %d", r.ReplayedBatches(), r.Epoch(), k)
			}
			got := r.Snapshot()
			graphsEqual(t, "replayed vs committed", got, want)
			for pid := 0; pid < got.NumPages(); pid++ {
				if p := gts.PageID(pid); got.RVT(p) != want.RVT(p) || got.Kind(p) != want.Kind(p) {
					t.Fatalf("page %d: RVT %+v kind %v, want %+v %v", pid, got.RVT(p), got.Kind(p), want.RVT(p), want.Kind(p))
				}
			}
			for v := uint64(0); v < got.NumVertices(); v++ {
				if got.HomeOf(v) != want.HomeOf(v) {
					t.Fatalf("vertex %d home %+v, want %+v", v, got.HomeOf(v), want.HomeOf(v))
				}
			}
		})
	}
}

// TestOpenMutableNamesTheUnaddressableBatch: a log whose second batch names
// a vertex the page config cannot address (written behind Ingest's back,
// which refuses it) fails the open as ErrInvalid, naming that batch's LSN.
func TestOpenMutableNamesTheUnaddressableBatch(t *testing.T) {
	spec := testBaseGraph(t)
	log := wal.AppendFrame(nil, 1, []wal.Op{{Src: 1, Dst: 2}})
	log = wal.AppendFrame(log, 2, []wal.Op{{Src: 3, Dst: 4}, {Del: true, Src: 5, Dst: 1 << 40}})
	walPath := filepath.Join(t.TempDir(), "bad.wal")
	if err := os.WriteFile(walPath, log, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{})
	if !errors.Is(err, gts.ErrInvalid) || !strings.Contains(err.Error(), "WAL batch 2:") {
		t.Fatalf("OpenMutable = %v, want ErrInvalid naming WAL batch 2", err)
	}
}

// TestIngestCrashMatrix sweeps every crash kind at every batch position:
// kill the ingest before the WAL append, mid-record, during the fsync, and
// during the page swap, then recover by reopening and require (a) a clean
// Graph.Validate and (b) every algorithm's results byte-identical to the
// synchronous-replay oracle over the committed prefix.
func TestIngestCrashMatrix(t *testing.T) {
	spec := testBaseGraph(t)
	batches := testBatches()

	// Oracle digests for every committed-prefix length, computed once.
	oracleDigest := make([]string, len(batches)+1)
	for n := 0; n <= len(batches); n++ {
		oracleDigest[n] = digestAll(t, oracleGraph(t, spec, batches, n))
	}

	type crashKind struct {
		name string
		plan func(k int64) *gts.FaultPlan
		// committed(k) is how many batches survive a crash at ordinal k.
		committed func(k int) int
	}
	kinds := []crashKind{
		{
			name:      "before-append",
			plan:      func(k int64) *gts.FaultPlan { return &gts.FaultPlan{Seed: 101, WALCrashAppends: []int64{k}} },
			committed: func(k int) int { return k - 1 },
		},
		{
			name:      "torn-mid-record",
			plan:      func(k int64) *gts.FaultPlan { return &gts.FaultPlan{Seed: 202, WALTornAppends: []int64{k}} },
			committed: func(k int) int { return k - 1 },
		},
		{
			name:      "during-fsync",
			plan:      func(k int64) *gts.FaultPlan { return &gts.FaultPlan{Seed: 303, WALCrashSyncs: []int64{k}} },
			committed: func(k int) int { return k },
		},
		{
			name:      "during-page-swap",
			plan:      func(k int64) *gts.FaultPlan { return &gts.FaultPlan{Seed: 404, CrashApplies: []int64{k}} },
			committed: func(k int) int { return k },
		},
	}

	for _, kind := range kinds {
		for k := 1; k <= len(batches); k++ {
			t.Run(fmt.Sprintf("%s/batch%d", kind.name, k), func(t *testing.T) {
				walPath := filepath.Join(t.TempDir(), "crash.wal")
				m, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{Faults: kind.plan(int64(k))})
				if err != nil {
					t.Fatal(err)
				}
				var crashed bool
				for i, ops := range batches {
					if _, err := m.Ingest(ops); err != nil {
						if !errors.Is(err, gts.ErrCrashed) {
							t.Fatalf("batch %d: %v, want an injected crash", i, err)
						}
						if i != k-1 {
							t.Fatalf("crashed at batch %d, want %d", i, k-1)
						}
						crashed = true
						break
					}
				}
				if !crashed {
					t.Fatal("the plan injected no crash")
				}
				if !m.Dead() {
					t.Fatal("graph not dead after crash")
				}
				// The dead graph's chain holds the batches it applied and not
				// the crashed one, even where that batch is durable (during
				// the fsync or the page swap).
				var applied []gts.EdgeOp
				for _, ops := range batches[:k-1] {
					applied = append(applied, ops...)
				}
				if ops, ok := m.Delta(0, uint64(k-1)); !ok || !slices.Equal(ops, applied) {
					t.Fatalf("dead graph's Delta(0, %d) = %d ops, %v; want the %d applied ops", k-1, len(ops), ok, len(applied))
				}
				if _, ok := m.Delta(0, uint64(k)); ok {
					t.Fatal("the crashed batch is in the dead graph's chain")
				}
				// A dead graph refuses further ingest.
				if _, err := m.Ingest(batches[0]); !errors.Is(err, gts.ErrCrashed) {
					t.Fatalf("ingest on dead graph = %v, want ErrCrashed", err)
				}
				m.Close()

				// Recovery: reopen and replay.
				r, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{})
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
				defer r.Close()
				want := kind.committed(k)
				if r.ReplayedBatches() != want {
					t.Fatalf("replayed %d batches, want %d", r.ReplayedBatches(), want)
				}
				if r.Epoch() != uint64(want) {
					t.Fatalf("recovered epoch %d, want %d", r.Epoch(), want)
				}
				snap := r.Snapshot()
				if err := snap.Validate(); err != nil {
					t.Fatalf("recovered graph invalid: %v", err)
				}
				// The reopened graph's chain starts empty: the batches it
				// replayed are not in it, so no prior from before the crash
				// can be replayed forward. For fsync and page-swap crashes the
				// WAL holds a durable batch the dead graph never applied, so
				// the dead graph's chain no longer describes the recovered
				// snapshot.
				if _, ok := r.Delta(0, r.Epoch()); ok && r.Epoch() > 0 {
					t.Fatal("the reopened graph's chain replays pre-crash commits")
				}
				recSt := incCapture(t, r)
				graphsEqual(t, "recovered vs oracle", snap, oracleGraph(t, spec, batches, want))
				if got := digestAll(t, snap); got != oracleDigest[want] {
					t.Fatalf("recovered algorithm digests diverge from the %d-batch oracle", want)
				}
				// The recovered graph accepts new ingest and lands where the
				// uncrashed history would.
				for i := want; i < len(batches); i++ {
					if _, err := r.Ingest(batches[i]); err != nil {
						t.Fatalf("post-recovery batch %d: %v", i, err)
					}
				}
				if got := digestAll(t, r.Snapshot()); got != oracleDigest[len(batches)] {
					t.Fatal("post-recovery completion diverges from the full oracle")
				}
				// Incremental recompute over the post-recovery suffix: every
				// accepted plan must match a full run byte-for-byte; an empty
				// suffix (recovery already held the whole history) must serve
				// BFS incrementally.
				hits := incCheck(t, "post-recovery", recSt, r)
				if want == len(batches) && hits != 1 {
					t.Fatalf("empty-suffix recovery served %d/1 incremental plans", hits)
				}
			})
		}
	}
}

// TestIngestMatchesFromScratchRebuild: a fully applied history yields a
// graph byte-identical to a from-scratch build over the same edge list.
func TestIngestMatchesFromScratchRebuild(t *testing.T) {
	spec := testBaseGraph(t)
	batches := testBatches()
	m, err := gts.OpenMutable(spec, filepath.Join(t.TempDir(), "full.wal"), gts.MutableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, ops := range batches {
		if lsn, err := m.Ingest(ops); err != nil || lsn != uint64(i+1) {
			t.Fatalf("batch %d: lsn %d err %v", i, lsn, err)
		}
	}
	snap := m.Snapshot()

	// From-scratch: decode the base adjacency, apply the ops logically,
	// rebuild with the same page config.
	base, err := gts.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	adj := make([][]uint64, base.NumVertices())
	for v := uint64(0); v < base.NumVertices(); v++ {
		base.NeighborsOf(v, func(dst uint64) { adj[v] = append(adj[v], dst) })
	}
	for _, ops := range batches {
		for _, op := range ops {
			max := op.Src
			if op.Dst > max {
				max = op.Dst
			}
			if max >= uint64(len(adj)) {
				grown := make([][]uint64, max+1)
				copy(grown, adj)
				adj = grown
			}
			if op.Del {
				kept := adj[op.Src][:0]
				for _, d := range adj[op.Src] {
					if d != op.Dst {
						kept = append(kept, d)
					}
				}
				adj[op.Src] = kept
			} else {
				adj[op.Src] = append(adj[op.Src], op.Dst)
			}
		}
	}
	var edges []csr.Edge
	for v, row := range adj {
		for _, d := range row {
			edges = append(edges, csr.Edge{Src: uint32(v), Dst: uint32(d)})
		}
	}
	src, err := csr.FromEdges(len(adj), edges)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gts.BuildGraph(src, base.Config())
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, "ingested vs from-scratch rebuild", snap, want)
	if digestAll(t, snap) != digestAll(t, want) {
		t.Fatal("algorithm digests diverge between ingested and rebuilt graphs")
	}
}
