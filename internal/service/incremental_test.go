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
// every request actually executes (a cached answer would neither become a
// prior nor count against the incremental path).
func incServerPair(t *testing.T) (inc, orc *service.Server) {
	t.Helper()
	inc = service.NewUncached(service.Config{Incremental: true, Trace: true})
	orc = service.NewUncached(service.Config{})
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
// nothing, so its request counts neither a hit nor a fallback), on both
// servers at the current epoch — planned from priors on inc, from scratch on
// orc — and requires byte-identical outputs. It returns the inc-side job IDs
// keyed by algo.
func checkIncEpoch(t *testing.T, inc, orc *service.Server, tag string) map[string]string {
	t.Helper()
	ids := make(map[string]string)
	for _, algo := range []string{"bfs", "cc", "pagerank"} {
		req := service.Request{Graph: "mut", Algo: algo}
		got, id := runSync(t, inc, req)
		ids[algo] = id
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
// incremental path across ingest epochs: first bfs/cc queries become priors
// (and count as fallbacks), post-ingest queries are served by
// delta-expansion byte-identically to a from-scratch oracle server, unsafe
// deltas fall back, pagerank counts neither, and the counters, health
// fields, and trace spans all report it.
func TestServiceIncrementalDifferential(t *testing.T) {
	inc, orc := incServerPair(t)

	// Epoch 0: no prior yet — every bfs/cc request must fall back to a full
	// run, which becomes the prior.
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
	// 2 cold-start fallbacks at epoch 0 plus at least CC's delete fallback;
	// pagerank counts in no epoch.
	if st.IncrementalFallbacks < 3 {
		t.Errorf("incremental fallbacks = %d, want >= 3", st.IncrementalFallbacks)
	}
	if st.IncrementalHits+st.IncrementalFallbacks != 6 {
		t.Errorf("hits %d + fallbacks %d != the 6 bfs/cc requests sent", st.IncrementalHits, st.IncrementalFallbacks)
	}
	if st.Retained["mut"] != 2 {
		t.Errorf("priors = %d, want 2", st.Retained["mut"])
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
	if b, err := inc.JobTrace(ids1["pagerank"]); err != nil || strings.Contains(string(b), "incfallback") || strings.Contains(string(b), "incseed") {
		t.Errorf("pagerank trace carries an incremental span (err=%v)", err)
	}

	// The oracle server never touched the incremental machinery.
	ost := orc.Stats()
	if ost.IncrementalHits != 0 || ost.IncrementalFallbacks != 0 || len(ost.Retained) != 0 {
		t.Errorf("oracle server reports incremental activity: %+v", ost)
	}
}

// TestIncrementalRequestIsAHitOrACountedFallback: on an incremental server
// only a bfs or cc request on a graph with a commit chain is a retaining
// request, a hit or one counted fallback. Every other request — an algorithm
// with no retained representation, or any request on a server that retains
// nothing — is a plain full run that counts neither, carries no incremental
// span and becomes no prior.
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
		got, id := runSync(t, inc, service.Request{Graph: "mut", Algo: algo})
		want, _ := runSync(t, orc, service.Request{Graph: "mut", Algo: algo})
		switch out := got.Output.(type) {
		case *gts.PageRankResult:
			if !bitEqualRanks(want.Output.(*gts.PageRankResult).Ranks, out.Ranks) {
				t.Errorf("pagerank on the incremental server differs from a plain server's")
			}
		case *gts.SSSPResult:
			if !bitEqualRanks(want.Output.(*gts.SSSPResult).Dist, out.Dist) {
				t.Errorf("sssp on the incremental server differs from a plain server's")
			}
		}
		if got.Metrics.PagesStreamed != want.Metrics.PagesStreamed {
			t.Errorf("%s on the incremental server streamed %d pages, the plain kernel %d", algo, got.Metrics.PagesStreamed, want.Metrics.PagesStreamed)
		}
		if b, err := inc.JobTrace(id); err != nil || strings.Contains(string(b), "incfallback") {
			t.Errorf("%s trace carries an incfallback span (err=%v)", algo, err)
		}
	}
	after := inc.Stats()
	if hits, falls := after.IncrementalHits-before.IncrementalHits, after.IncrementalFallbacks-before.IncrementalFallbacks; hits != 0 || falls != 0 {
		t.Errorf("hits +%d, fallbacks +%d; want +0, +0", hits, falls)
	}
	if after.Retained["mut"] != before.Retained["mut"] {
		t.Errorf("priors %d -> %d: an unsupported algorithm became a prior", before.Retained["mut"], after.Retained["mut"])
	}

	// The retaining requests of the same epoch: each a hit or one fallback.
	checkIncEpoch(t, inc, orc, "epoch1")
	last := inc.Stats()
	if hits, falls := last.IncrementalHits-after.IncrementalHits, last.IncrementalFallbacks-after.IncrementalFallbacks; hits+falls != 2 {
		t.Errorf("bfs and cc: hits +%d, fallbacks +%d; want 2 between them", hits, falls)
	}

	// A server without Config.Incremental retains nothing and counts nothing.
	if ost := orc.Stats(); ost.IncrementalHits != 0 || ost.IncrementalFallbacks != 0 || len(ost.Retained) != 0 {
		t.Errorf("plain server: hits %d, fallbacks %d, retained %v; want 0, 0, none", ost.IncrementalHits, ost.IncrementalFallbacks, ost.Retained)
	}
}

// TestUnflaggedRequestIsADeltaHit: after a commit, a plain bfs request on an
// incremental server — it names no strategy — plans from its prior: a delta
// hit with an incseed span, whose levels are byte-identical to a
// non-incremental server's answer (its metrics are its own run's).
func TestUnflaggedRequestIsADeltaHit(t *testing.T) {
	inc, orc := incServerPair(t)
	req := service.Request{Graph: "mut", Algo: "bfs", Params: service.Params{Source: 3}}
	runSync(t, inc, req) // the prior
	batch := []gts.EdgeOp{{Src: 3, Dst: 40}, {Src: 40, Dst: 41}, {Src: 7, Dst: 11}}
	for _, srv := range []*service.Server{inc, orc} {
		if _, err := srv.Ingest("mut", batch); err != nil {
			t.Fatal(err)
		}
	}
	before := inc.Stats()
	got, id := runSync(t, inc, req)
	if st := inc.Stats(); st.IncrementalHits != before.IncrementalHits+1 || st.IncrementalFallbacks != before.IncrementalFallbacks {
		t.Fatalf("hits +%d, fallbacks +%d; want a delta hit", st.IncrementalHits-before.IncrementalHits, st.IncrementalFallbacks-before.IncrementalFallbacks)
	}
	if b, err := inc.JobTrace(id); err != nil || !strings.Contains(string(b), "incseed") {
		t.Errorf("the delta run's trace has no incseed span (err=%v)", err)
	}
	want, _ := runSync(t, orc, req)
	gotJSON, err := json.Marshal(got.Output.(*gts.BFSResult).Levels)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want.Output.(*gts.BFSResult).Levels)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("the delta hit's levels differ from a non-incremental server's")
	}
}

// TestHTTPIncremental drives the incremental path over the wire: a plain bfs
// body plans from its prior, a body still carrying the retired
// `"incremental"` key is accepted and answered the same, fallbacks and hits
// show in /metrics, and /healthz reports the priors.
func TestHTTPIncremental(t *testing.T) {
	_, ts, _ := serveSocial(t, service.NewUncached(service.Config{Incremental: true, Trace: true}))
	walPath := filepath.Join(t.TempDir(), "mut.wal")
	if resp, doc := putJSON(t, ts.URL+"/v1/graphs/mut", map[string]any{"spec": mutSpec, "wal": walPath, "pool": 2}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("mutable load status = %d (%v)", resp.StatusCode, doc)
	}

	// Cold: becomes the prior, counts as a fallback.
	if resp, doc := postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold bfs status = %d (%v)", resp.StatusCode, doc)
	}
	if resp, doc := postJSON(t, ts.URL+"/v1/graphs/mut/ingest", map[string]any{
		"edges": []map[string]any{{"src": 5, "dst": 9}, {"src": 9, "dst": 5}},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d (%v)", resp.StatusCode, doc)
	}
	// Warm: both served by delta expansion, the retired key ignored.
	respOld, docOld := postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0, "incremental": true})
	if respOld.StatusCode != http.StatusOK {
		t.Fatalf("bfs with the retired key: status = %d (%v)", respOld.StatusCode, docOld)
	}
	respNew, docNew := postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0})
	if respNew.StatusCode != http.StatusOK {
		t.Fatalf("warm bfs status = %d (%v)", respNew.StatusCode, docNew)
	}
	oldOut, _ := json.Marshal(docOld["output"])
	newOut, _ := json.Marshal(docNew["output"])
	if !bytes.Equal(oldOut, newOut) {
		t.Error("the retired incremental key changed the answer")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"gtsd_incremental_hits_total 2",
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
	inc := service.NewUncached(service.Config{Incremental: true})
	orc := service.NewUncached(service.Config{})
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
		t.Errorf("multi-GPU pool holds %d priors", st.Retained["mut"])
	}
}

// TestSavedPagesIgnoreDeviceWarmth: a hit saves the pages a full run of its
// request touched minus the pages it touched, streamed or found in the
// device cache. So the same requests count the same saving whether each run
// found the device cold or the graph already resident.
func TestSavedPagesIgnoreDeviceWarmth(t *testing.T) {
	saved := func(warm bool) uint64 {
		srv := service.NewUncached(service.Config{Incremental: true})
		defer srv.Close()
		if err := srv.LoadMutableGraph("mut", mutSpec, filepath.Join(t.TempDir(), "mut.wal"), gts.Config{}, 0); err != nil {
			t.Fatal(err)
		}
		bfs := service.Request{Graph: "mut", Algo: "bfs"}
		run := func(req service.Request) {
			if warm { // every page of the graph, resident before req runs
				runSync(t, srv, service.Request{Graph: "mut", Algo: "pagerank"})
			}
			runSync(t, srv, req)
		}
		run(bfs) // the full run: the prior
		if _, err := srv.Ingest("mut", []gts.EdgeOp{{Src: 5, Dst: 9}, {Src: 9, Dst: 5}}); err != nil {
			t.Fatal(err)
		}
		run(bfs) // the delta run
		st := srv.Stats()
		if st.IncrementalHits != 1 {
			t.Fatalf("warm=%v: %d hits, want 1", warm, st.IncrementalHits)
		}
		return st.IncrementalSavedSupersteps
	}
	cold, warm := saved(false), saved(true)
	if cold == 0 || warm != cold {
		t.Fatalf("saved pages: %d on a cold device, %d on a warm one; want the same, above 0", cold, warm)
	}
}
