package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	gts "repro"
	"repro/internal/service"
)

// incServerPair starts two servers over the same deterministic mutable
// spec: one with retained-state incremental recompute, one plain server
// acting as the from-scratch oracle. Both disable the result cache so
// every request actually executes (a cached answer would neither capture
// nor count against the incremental path).
func incServerPair(t *testing.T) (inc, orc *service.Server) {
	t.Helper()
	inc = service.New(service.Config{Incremental: true, CacheEntries: -1, TraceJobs: 16})
	orc = service.New(service.Config{CacheEntries: -1})
	t.Cleanup(func() { inc.Close(); orc.Close() })
	if err := inc.LoadMutableGraph("mut", mutSpec, filepath.Join(t.TempDir(), "inc.wal"), gts.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := orc.LoadMutableGraph("mut", mutSpec, filepath.Join(t.TempDir(), "orc.wal"), gts.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	return inc, orc
}

func runSync(t testing.TB, srv *service.Server, req service.Request) (*service.Result, string) {
	t.Helper()
	job, err := srv.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("%s run: %v", req.Algo, err)
	}
	res, err := job.Result()
	if err != nil {
		t.Fatalf("%s result: %v", req.Algo, err)
	}
	return res, job.ID()
}

func equalLabels(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func bitEqualRanks(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkIncEpoch runs the two retained algorithms, and pagerank (which retains
// nothing: its incremental request is a counted full run), on both servers at
// the current epoch — incremental on inc, from-scratch on orc — and requires
// byte-identical outputs. It returns the inc-side job IDs keyed by algo.
func checkIncEpoch(t *testing.T, inc, orc *service.Server, tag string) map[string]string {
	t.Helper()
	ids := make(map[string]string)
	for _, algo := range []string{"bfs", "cc", "pagerank"} {
		req := service.Request{Graph: "mut", Algo: algo, Incremental: true}
		got, id := runSync(t, inc, req)
		ids[algo] = id
		req.Incremental = false
		want, _ := runSync(t, orc, req)
		switch algo {
		case "bfs":
			if !equalLevels(want.Output.(*gts.BFSResult).Levels, got.Output.(*gts.BFSResult).Levels) {
				t.Fatalf("%s: incremental bfs diverges from full recompute", tag)
			}
		case "cc":
			if !equalLabels(want.Output.(*gts.CCResult).Labels, got.Output.(*gts.CCResult).Labels) {
				t.Fatalf("%s: incremental cc diverges from full recompute", tag)
			}
		case "pagerank":
			if !bitEqualRanks(want.Output.(*gts.PageRankResult).Ranks, got.Output.(*gts.PageRankResult).Ranks) {
				t.Fatalf("%s: incremental pagerank diverges from full recompute", tag)
			}
		}
	}
	return ids
}

// TestServiceIncrementalDifferential drives the whole service-level
// incremental path across ingest epochs: first queries capture (and count
// as fallbacks), post-ingest queries are served by delta-expansion
// byte-identically to a from-scratch oracle server, unsafe deltas fall
// back, and the counters, health fields, and trace spans all report it.
func TestServiceIncrementalDifferential(t *testing.T) {
	inc, orc := incServerPair(t)

	// Epoch 0: no retained state yet — every incremental request must fall
	// back to (and capture) a full run.
	ids0 := checkIncEpoch(t, inc, orc, "epoch0")

	// An insert-only batch keeps BFS and CC on the delta-expansion path.
	insertOnly := []gts.EdgeOp{{Src: 5, Dst: 9}, {Src: 9, Dst: 5}, {Src: 7, Dst: 11}}
	if _, err := inc.Ingest("mut", insertOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := orc.Ingest("mut", insertOnly); err != nil {
		t.Fatal(err)
	}
	ids1 := checkIncEpoch(t, inc, orc, "epoch1")

	// A delete invalidates CC's retained state (any delete may split a
	// component); BFS decides per the invalidation matrix.
	withDelete := []gts.EdgeOp{{Src: 5, Dst: 9, Del: true}, {Src: 12, Dst: 13}}
	if _, err := inc.Ingest("mut", withDelete); err != nil {
		t.Fatal(err)
	}
	if _, err := orc.Ingest("mut", withDelete); err != nil {
		t.Fatal(err)
	}
	checkIncEpoch(t, inc, orc, "epoch2")

	st := inc.Stats()
	if st.IncrementalHits < 2 {
		t.Errorf("incremental hits = %d, want >= 2 (the insert-only epoch)", st.IncrementalHits)
	}
	// 2 cold-start fallbacks at epoch 0, pagerank's in all three epochs, plus
	// at least CC's delete fallback.
	if st.IncrementalFallbacks < 6 {
		t.Errorf("incremental fallbacks = %d, want >= 6", st.IncrementalFallbacks)
	}
	if st.IncrementalHits+st.IncrementalFallbacks != 9 {
		t.Errorf("hits %d + fallbacks %d != the 9 incremental requests sent", st.IncrementalHits, st.IncrementalFallbacks)
	}
	if st.Retained["mut"] != 2 {
		t.Errorf("retained entries = %d, want 2", st.Retained["mut"])
	}

	found := false
	for _, h := range inc.Health() {
		if h.Name == "mut" {
			found = true
			if !h.Incremental || h.RetainedEntries != 2 {
				t.Errorf("health: incremental=%v retained=%d, want true/2", h.Incremental, h.RetainedEntries)
			}
		}
	}
	if !found {
		t.Fatal("graph missing from health report")
	}

	// Trace conformance: cold-start runs carry the incfallback marker,
	// delta-expansion runs the incseed marker.
	if b, err := inc.JobTrace(ids0["bfs"]); err != nil || !strings.Contains(string(b), "incfallback") {
		t.Errorf("epoch-0 bfs trace missing incfallback span (err=%v)", err)
	}
	if b, err := inc.JobTrace(ids1["bfs"]); err != nil || !strings.Contains(string(b), "incseed") {
		t.Errorf("epoch-1 bfs trace missing incseed span (err=%v)", err)
	}

	// The oracle server never touched the incremental machinery.
	ost := orc.Stats()
	if ost.IncrementalHits != 0 || ost.IncrementalFallbacks != 0 || len(ost.Retained) != 0 {
		t.Errorf("oracle server reports incremental activity: %+v", ost)
	}
}

// TestIncrementalRequestIsAHitOrACountedFallback: an "incremental": true
// request the server cannot serve by delta-expansion — an algorithm with no
// retained representation, or a server that retains nothing — is a full run
// with one counted fallback and an incfallback span, never a silent one, and
// it retains nothing.
func TestIncrementalRequestIsAHitOrACountedFallback(t *testing.T) {
	inc, orc := incServerPair(t)
	// Warm, then ingest: were pagerank or sssp retained, this is where a
	// delta-expansion would be on offer.
	checkIncEpoch(t, inc, orc, "epoch0")
	batch := []gts.EdgeOp{{Src: 5, Dst: 9}, {Src: 7, Dst: 11}}
	for _, srv := range []*service.Server{inc, orc} {
		if _, err := srv.Ingest("mut", batch); err != nil {
			t.Fatal(err)
		}
	}
	before := inc.Stats()
	for _, algo := range []string{"pagerank", "sssp"} {
		got, id := runSync(t, inc, service.Request{Graph: "mut", Algo: algo, Incremental: true})
		want, _ := runSync(t, orc, service.Request{Graph: "mut", Algo: algo})
		switch out := got.Output.(type) {
		case *gts.PageRankResult:
			if !bitEqualRanks(want.Output.(*gts.PageRankResult).Ranks, out.Ranks) {
				t.Errorf("pagerank with the flag differs from a plain server's")
			}
		case *gts.SSSPResult:
			if !bitEqualRanks(want.Output.(*gts.SSSPResult).Dist, out.Dist) {
				t.Errorf("sssp with the flag differs from a plain server's")
			}
		}
		if got.Metrics.PagesStreamed != want.Metrics.PagesStreamed {
			t.Errorf("%s with the flag streamed %d pages, the plain kernel %d", algo, got.Metrics.PagesStreamed, want.Metrics.PagesStreamed)
		}
		if b, err := inc.JobTrace(id); err != nil || !strings.Contains(string(b), "incfallback") {
			t.Errorf("%s trace missing the incfallback span (err=%v)", algo, err)
		}
	}
	after := inc.Stats()
	if hits, falls := after.IncrementalHits-before.IncrementalHits, after.IncrementalFallbacks-before.IncrementalFallbacks; hits != 0 || falls != 2 {
		t.Errorf("hits +%d, fallbacks +%d; want +0, +2", hits, falls)
	}
	if after.Retained["mut"] != before.Retained["mut"] {
		t.Errorf("retained entries %d -> %d: an unsupported algorithm captured state", before.Retained["mut"], after.Retained["mut"])
	}

	// A server without Config.Incremental: the flag is still a fallback.
	runSync(t, orc, service.Request{Graph: "mut", Algo: "bfs", Incremental: true})
	if ost := orc.Stats(); ost.IncrementalHits != 0 || ost.IncrementalFallbacks != 1 || len(ost.Retained) != 0 {
		t.Errorf("plain server: hits %d, fallbacks %d, retained %v; want 0, 1, none", ost.IncrementalHits, ost.IncrementalFallbacks, ost.Retained)
	}
}

// TestHTTPIncremental drives the incremental path over the wire: the
// `"incremental": true` body field must reach the job (it rides beside
// the params but never enters the cache key), fallbacks and hits must
// show in /metrics, and /healthz must report the retained entries.
func TestHTTPIncremental(t *testing.T) {
	_, ts, _ := httpServer(t, service.Config{Incremental: true, CacheEntries: -1, TraceJobs: 8})
	walPath := filepath.Join(t.TempDir(), "mut.wal")
	if resp, doc := putJSON(t, ts.URL+"/v1/graphs/mut", map[string]any{"spec": mutSpec, "wal": walPath, "pool": 2}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("mutable load status = %d (%v)", resp.StatusCode, doc)
	}

	// Cold: captures state, counts as a fallback.
	if resp, doc := postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0, "incremental": true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold bfs status = %d (%v)", resp.StatusCode, doc)
	}
	if resp, doc := postJSON(t, ts.URL+"/v1/graphs/mut/ingest", map[string]any{
		"edges": []map[string]any{{"src": 5, "dst": 9}, {"src": 9, "dst": 5}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d (%v)", resp.StatusCode, doc)
	}
	// Warm: served by delta expansion, byte-identical to a plain run.
	respInc, docInc := postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0, "incremental": true})
	if respInc.StatusCode != http.StatusOK {
		t.Fatalf("warm bfs status = %d (%v)", respInc.StatusCode, docInc)
	}
	respFull, docFull := postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0})
	if respFull.StatusCode != http.StatusOK {
		t.Fatalf("full bfs status = %d (%v)", respFull.StatusCode, docFull)
	}
	incOut, _ := json.Marshal(docInc["output"])
	fullOut, _ := json.Marshal(docFull["output"])
	if !bytes.Equal(incOut, fullOut) {
		t.Error("incremental HTTP result differs from full recompute")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"gtsd_incremental_hits_total 1",
		"gtsd_incremental_fallbacks_total 1",
		"gtsd_incremental_saved_supersteps_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if resp, doc := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d (%v)", resp.StatusCode, doc)
	} else {
		graphs, _ := doc["graphs"].([]any)
		found := false
		for _, gr := range graphs {
			row, _ := gr.(map[string]any)
			if row["name"] == "mut" {
				found = true
				if row["incremental"] != true {
					t.Errorf("healthz graph doc missing incremental: %v", row)
				}
				if n, _ := row["retained_entries"].(float64); n < 1 {
					t.Errorf("healthz retained_entries = %v, want >= 1", row["retained_entries"])
				}
			}
		}
		if !found {
			t.Fatal("mut missing from healthz")
		}
	}
}

// TestServiceIncrementalMultiGPUGate: multi-GPU pools merge replica state
// in ways the delta planners do not model, so incremental requests must be
// refused (counted as fallbacks) and answered by the normal full path.
func TestServiceIncrementalMultiGPUGate(t *testing.T) {
	inc := service.New(service.Config{Incremental: true, CacheEntries: -1})
	orc := service.New(service.Config{CacheEntries: -1})
	t.Cleanup(func() { inc.Close(); orc.Close() })
	cfg := gts.Config{GPUs: 2}
	if err := inc.LoadMutableGraph("mut", mutSpec, filepath.Join(t.TempDir(), "inc.wal"), cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := orc.LoadMutableGraph("mut", mutSpec, filepath.Join(t.TempDir(), "orc.wal"), cfg, 0); err != nil {
		t.Fatal(err)
	}
	checkIncEpoch(t, inc, orc, "multigpu")
	st := inc.Stats()
	if st.IncrementalHits != 0 {
		t.Errorf("multi-GPU pool served %d incremental hits", st.IncrementalHits)
	}
	if st.IncrementalFallbacks == 0 {
		t.Error("multi-GPU incremental requests not counted as fallbacks")
	}
	if st.Retained["mut"] != 0 {
		t.Errorf("multi-GPU pool captured %d retained entries", st.Retained["mut"])
	}
}
