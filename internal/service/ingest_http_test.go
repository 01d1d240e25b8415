package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	gts "repro"
	"repro/internal/service"
)

// mutSpec is the deterministic generator spec mutable-graph tests use as
// their base: reopening it always yields the same graph, so the WAL's
// deltas replay onto identical ground.
const mutSpec = "RMAT26@15"

func putJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil && err != io.EOF {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp, doc
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil && err != io.EOF {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp, doc
}

// graphState extracts one graph's state string from a /healthz or /readyz
// document.
func graphState(doc map[string]any, name string) string {
	graphs, _ := doc["graphs"].([]any)
	for _, g := range graphs {
		row, _ := g.(map[string]any)
		if row["name"] == name {
			s, _ := row["state"].(string)
			return s
		}
	}
	return ""
}

// TestHTTPIngestAndEpochCache drives the full mutable-graph HTTP surface:
// load with a WAL, query, ingest a batch, and require the cache to miss at
// the new epoch (the ingest invalidated it) while health and metrics
// report the mutation.
func TestHTTPIngestAndEpochCache(t *testing.T) {
	_, ts, _ := httpServer(t, service.Config{})
	walPath := filepath.Join(t.TempDir(), "mut.wal")

	resp, doc := putJSON(t, ts.URL+"/v1/graphs/mut", map[string]any{"spec": mutSpec, "wal": walPath, "pool": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mutable load status = %d (%v)", resp.StatusCode, doc)
	}
	if doc["state"] != "serving" || doc["mutable"] != true {
		t.Fatalf("loaded graph doc = %v", doc)
	}

	// First query computes, identical repeat hits the cache.
	resp, doc = postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bfs status = %d (%v)", resp.StatusCode, doc)
	}
	if cached, _ := doc["cached"].(bool); cached {
		t.Error("first bfs claims cached")
	}
	resp, doc = postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0})
	if resp.StatusCode != http.StatusOK || doc["cached"] != true {
		t.Fatalf("repeat bfs not cached: status %d, %v", resp.StatusCode, doc)
	}

	// Commit a mutation batch.
	resp, doc = postJSON(t, ts.URL+"/v1/graphs/mut/ingest", map[string]any{
		"edges": []map[string]any{
			{"src": 1, "dst": 2},
			{"src": 2, "dst": 1},
			{"src": 3, "dst": 4, "del": true},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d (%v)", resp.StatusCode, doc)
	}
	if doc["epoch"] != float64(1) || doc["applied"] != float64(3) {
		t.Fatalf("ingest doc = %v", doc)
	}

	// The same query at the new epoch must recompute, not hit the stale
	// cached answer.
	resp, doc = postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ingest bfs status = %d (%v)", resp.StatusCode, doc)
	}
	if cached, _ := doc["cached"].(bool); cached {
		t.Error("post-ingest bfs served from the pre-ingest cache")
	}

	// Health reports the epoch; metrics export the ingest/WAL series.
	resp, doc = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || graphState(doc, "mut") != "serving" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, doc)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"gtsd_ingest_batches_total 1",
		"gtsd_ingest_edges_total 3",
		`gtsd_wal_appends_total{graph="mut"} 1`,
		`gtsd_graph_epoch{graph="mut"} 1`,
		// The replay series describe the last open, which a reload can
		// lower: gauges, not counters.
		"# TYPE gtsd_wal_replayed_batches gauge\n",
		"# TYPE gtsd_wal_truncated_bytes gauge\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Ingest against an immutable graph is a 409; unknown graph a 404.
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/social/ingest", map[string]any{"edges": []map[string]any{{"src": 0, "dst": 1}}})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("ingest on immutable graph status = %d, want 409", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/nosuch/ingest", map[string]any{"edges": []map[string]any{{"src": 0, "dst": 1}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ingest on unknown graph status = %d, want 404", resp.StatusCode)
	}
	// An edge past the addressable vertices is the caller's mistake: 400,
	// nothing committed.
	resp, doc = postJSON(t, ts.URL+"/v1/graphs/mut/ingest", map[string]any{"edges": []map[string]any{{"src": 0, "dst": uint64(math.MaxUint64)}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ingest of an unaddressable edge = %d (%v), want 400", resp.StatusCode, doc)
	}
	_, doc = getJSON(t, ts.URL+"/healthz")
	for _, g := range doc["graphs"].([]any) {
		if row := g.(map[string]any); row["name"] == "mut" && row["epoch"] != float64(1) {
			t.Errorf("the refused batch moved the graph: %v", row)
		}
	}
}

// TestHTTPReadyzRecoveringTransition pre-builds a WAL with a long committed
// history, then watches /readyz while the graph reloads: the probe must
// report 503/"recovering" during the replay and 200/"serving" after it.
func TestHTTPReadyzRecoveringTransition(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "recover.wal")

	// Write a history long enough that the recovery replay is observable.
	m, err := gts.OpenMutable(mutSpec, walPath, gts.MutableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 200
	for i := 0; i < batches; i++ {
		ops := []gts.EdgeOp{
			{Src: uint64(i % 997), Dst: uint64((i*7 + 1) % 997)},
			{Src: uint64((i * 13) % 997), Dst: uint64((i*3 + 2) % 997)},
		}
		if _, err := m.Ingest(ops); err != nil {
			t.Fatalf("seeding batch %d: %v", i, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts, _ := httpServer(t, service.Config{})

	// An empty registry plus the immutable "social" graph is ready.
	if resp, doc := getJSON(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK || doc["ready"] != true {
		t.Fatalf("pre-load readyz = %d %v", resp.StatusCode, doc)
	}

	// Poll /readyz while the load replays the WAL in the background.
	done := make(chan error, 1)
	go func() { done <- srv.LoadMutableGraph("mut", mutSpec, walPath, gts.Config{}, 0) }()
	sawRecovering, sawNotReady := false, false
poll:
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("LoadMutableGraph: %v", err)
			}
			break poll
		default:
		}
		resp, doc := getJSON(t, ts.URL+"/readyz")
		if state := graphState(doc, "mut"); state == "recovering" {
			sawRecovering = true
			if resp.StatusCode != http.StatusServiceUnavailable || doc["ready"] != false {
				t.Fatalf("readyz while recovering = %d %v", resp.StatusCode, doc)
			}
			sawNotReady = true
		}
		time.Sleep(500 * time.Microsecond)
	}
	if !sawRecovering || !sawNotReady {
		t.Skip("recovery replay finished before a poll observed it; transition not exercised")
	}

	// After the load: serving and ready, at the replayed epoch.
	resp, doc := getJSON(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || doc["ready"] != true || graphState(doc, "mut") != "serving" {
		t.Fatalf("post-load readyz = %d %v", resp.StatusCode, doc)
	}
	for _, h := range srv.Health() {
		if h.Name == "mut" {
			if h.Epoch != batches || h.ReplayedBatches != batches {
				t.Fatalf("recovered health = %+v, want epoch/replayed %d", h, batches)
			}
			if !h.Mutable {
				t.Fatal("recovered graph not reported mutable")
			}
		}
	}
	// A job against the recovered graph computes at the recovered epoch.
	resp, doc = postJSON(t, ts.URL+"/v1/graphs/mut/bfs", map[string]any{"source": 0})
	if resp.StatusCode != http.StatusOK || doc["state"] != "done" {
		t.Fatalf("post-recovery bfs = %d %v", resp.StatusCode, doc)
	}
}

// TestIngestEpochNoCrossEpochCoalescing asserts the single-flight table
// cannot hand a post-ingest submission to a pre-ingest leader: the epoch is
// part of the key, so the second job computes fresh.
func TestIngestEpochNoCrossEpochCoalescing(t *testing.T) {
	srv := service.New(service.Config{Workers: 2})
	defer srv.Close()
	walPath := filepath.Join(t.TempDir(), "coalesce.wal")
	if err := srv.LoadMutableGraph("mut", mutSpec, walPath, gts.Config{}, 0); err != nil {
		t.Fatal(err)
	}

	req := service.Request{Graph: "mut", Algo: "pagerank", Params: service.Params{Iterations: 20}}
	before, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ingest("mut", []gts.EdgeOp{{Src: 5, Dst: 6}, {Src: 6, Dst: 5}}); err != nil {
		t.Fatal(err)
	}
	after, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-before.Done()
	<-after.Done()
	if err := before.Err(); err != nil {
		t.Fatalf("pre-ingest job: %v", err)
	}
	if err := after.Err(); err != nil {
		t.Fatalf("post-ingest job: %v", err)
	}
	if after.Cached() {
		t.Fatal("post-ingest job reused a pre-ingest answer (cache or coalescing across epochs)")
	}
	st := srv.Stats()
	if st.Coalesced != 0 {
		t.Fatalf("post-ingest job coalesced behind a pre-ingest leader (coalesced=%d)", st.Coalesced)
	}
	if st.IngestBatches != 1 || st.IngestEdges != 2 || st.Epochs["mut"] != 1 {
		t.Fatalf("ingest stats = batches %d edges %d epoch %d", st.IngestBatches, st.IngestEdges, st.Epochs["mut"])
	}
}

// TestConcurrentIngestPublishesEveryBatch: N ingests racing on one graph all
// succeed, and every one of them is then in the snapshot queries run against
// — the registry's epoch has advanced with the WAL's, each acknowledged edge
// is one hop from its source — and the schedulers of the epochs they replaced
// are gone once the server has closed.
func TestConcurrentIngestPublishesEveryBatch(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	srv := service.New(service.Config{Workers: 2})
	if err := srv.LoadMutableGraph("mut", mutSpec, filepath.Join(t.TempDir(), "race.wal"), gts.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	bfs := func(src uint64) []int16 {
		t.Helper()
		job, err := srv.Run(context.Background(), service.Request{Graph: "mut", Algo: "bfs", Params: service.Params{Source: src}})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := job.Result()
		return res.Output.(*gts.BFSResult).Levels
	}
	// One new edge per ingester: from its own source to a vertex that source
	// does not reach in one hop today.
	const n = 4
	ops := make([]gts.EdgeOp, n)
	for i := range ops {
		ops[i].Src = uint64(10 * (i + 1))
		for v, lv := range bfs(ops[i].Src) {
			if lv != 0 && lv != 1 {
				ops[i].Dst = uint64(v)
				break
			}
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = srv.Ingest("mut", ops[i:i+1])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if published, wal := srv.Graphs()[0].Epoch, srv.Health()[0].Epoch; published != n || wal != n {
		t.Errorf("published epoch %d, WAL epoch %d, want both %d", published, wal, n)
	}
	for i, op := range ops {
		if lv := bfs(op.Src)[op.Dst]; lv != 1 {
			t.Errorf("ingest %d was acknowledged but BFS from %d puts %d at level %d, want 1", i, op.Src, op.Dst, lv)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= goroutines }, "the replaced epochs' schedulers to stop")
}

// TestHTTPOversizedBodyRejected: every handler that decodes a body stops
// reading at the service's body limit and answers 413 — an ingest with an
// arbitrarily long "edges" array is refused before it is parsed, and commits
// nothing. The handler is driven directly (no socket), so the assertion does
// not depend on how a client sees a connection the server stops reading.
func TestHTTPOversizedBodyRejected(t *testing.T) {
	srv := service.New(service.Config{})
	defer srv.Close()
	if err := srv.LoadMutableGraph("mut", mutSpec, filepath.Join(t.TempDir(), "mut.wal"), gts.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ingest("mut", []gts.EdgeOp{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	// ~9 MiB of well-formed JSON: only its length is wrong.
	edges := `{"edges":[` + strings.Repeat(`{"src":1,"dst":2},`, 500_000) + `{"src":1,"dst":2}]}`
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/graphs/mut/ingest", edges},
		{http.MethodPost, "/v1/graphs/mut/bfs", `{"source":0,"pad":"` + strings.Repeat("x", 9<<20) + `"}`},
		{http.MethodPut, "/v1/graphs/other", `{"spec":"` + strings.Repeat("x", 9<<20) + `"}`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with a %d-byte body: status %d, want 413", tc.method, tc.path, len(tc.body), rec.Code)
		}
	}
	if st := srv.Stats(); st.Epochs["mut"] != 1 || st.IngestBatches != 1 {
		t.Errorf("oversized ingest moved the graph: epoch %d after %d batches, want 1 and 1", st.Epochs["mut"], st.IngestBatches)
	}
	// The limit is on length alone: the same edge in a small body commits.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/mut/ingest", strings.NewReader(`{"edges":[{"src":1,"dst":2}]}`)))
	if rec.Code != http.StatusOK || srv.Stats().Epochs["mut"] != 2 {
		t.Errorf("small ingest after the oversized one: status %d, epoch %d", rec.Code, srv.Stats().Epochs["mut"])
	}
}
