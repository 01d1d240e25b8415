package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	gts "repro"
	"repro/internal/service"
)

func httpServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server, *gts.System) {
	t.Helper()
	g, _ := testGraphPair(t)
	srv := service.New(cfg)
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("social", sys); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, sys
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
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

func TestHTTPSyncRunAndCache(t *testing.T) {
	_, ts, _ := httpServer(t, service.Config{})

	resp, doc := postJSON(t, ts.URL+"/v1/graphs/social/pagerank", map[string]any{"iterations": 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync pagerank status = %d (%v)", resp.StatusCode, doc)
	}
	if doc["state"] != "done" || doc["graph"] != "social" || doc["algo"] != "pagerank" {
		t.Errorf("job doc = %v", doc)
	}
	result, ok := doc["result"].(map[string]any)
	if !ok {
		t.Fatalf("no result payload: %v", doc)
	}
	ranks, ok := result["Ranks"].([]any)
	if !ok || len(ranks) == 0 {
		t.Errorf("no ranks in result: %v", result)
	}
	if cached, _ := doc["cached"].(bool); cached {
		t.Error("first request claims cached")
	}

	// The identical request must come back cached.
	resp, doc = postJSON(t, ts.URL+"/v1/graphs/social/pagerank", map[string]any{"iterations": 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second pagerank status = %d", resp.StatusCode)
	}
	if cached, _ := doc["cached"].(bool); !cached {
		t.Error("identical request not served from cache")
	}
}

func TestHTTPAsyncFlow(t *testing.T) {
	_, ts, _ := httpServer(t, service.Config{})
	resp, doc := postJSON(t, ts.URL+"/v1/graphs/social/bfs?mode=async", map[string]any{"source": 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d (%v)", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("no job id: %v", doc)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jd map[string]any
		if err := json.NewDecoder(r.Body).Decode(&jd); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if jd["state"] == "done" {
			if _, ok := jd["result"]; !ok {
				t.Errorf("done job has no result: %v", jd)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %v", id, jd["state"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPGraphLoadAndList(t *testing.T) {
	_, ts, _ := httpServer(t, service.Config{})

	// "pool" (the width of a graph's engine pool) and "host_workers" (the
	// host-parallel kernel path) were load fields until their features were
	// deleted; bodies that still carry them must keep loading.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/graphs/tiny",
		strings.NewReader(`{"spec":"RMAT26@15","pool":1,"host_workers":8}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info service.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || info.Name != "tiny" || info.Vertices == 0 {
		t.Fatalf("load: %d %+v", resp.StatusCode, info)
	}

	r, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Graphs     []service.GraphInfo `json:"graphs"`
		Algorithms []string            `json:"algorithms"`
	}
	if err := json.NewDecoder(r.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(listing.Graphs) != 2 || len(listing.Algorithms) == 0 {
		t.Errorf("listing = %+v", listing)
	}

	// The fresh graph must serve jobs.
	resp2, doc := postJSON(t, ts.URL+"/v1/graphs/tiny/cc", nil)
	if resp2.StatusCode != http.StatusOK || doc["state"] != "done" {
		t.Errorf("cc on loaded graph: %d %v", resp2.StatusCode, doc)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	_, ts, sys := httpServer(t, service.Config{QueueDepth: 2})

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/graphs/ghost/bfs", "", http.StatusNotFound},
		{"POST", "/v1/graphs/social/zork", "", http.StatusNotFound},
		{"GET", "/v1/jobs/job-424242", "", http.StatusNotFound},
		{"POST", "/v1/graphs/social/bfs", "{not json", http.StatusBadRequest},
		{"POST", "/v1/graphs/social/bfs?timeout=banana", "", http.StatusBadRequest},
		{"PUT", "/v1/graphs/bad", `{"spec":"NotADataset"}`, http.StatusBadRequest},
		{"PUT", "/v1/graphs/bad", `{"spec":"RMAT27@x"}`, http.StatusBadRequest},
		{"PUT", "/v1/graphs/bad", `{"spec":"RMAT27@16","streams":99}`, http.StatusBadRequest},
		{"PUT", "/v1/graphs/bad", `{"spec":"RMAT27@16","gpus":-1}`, http.StatusBadRequest},
		{"PUT", "/v1/graphs/bad", `{}`, http.StatusBadRequest},
		{"PUT", "/v1/graphs/bad", `{"spec":"RMAT26@15","strategy":"q"}`, http.StatusBadRequest},
		{"PUT", "/v1/graphs/bad", `{"spec":"RMAT26@15","storage":"tape"}`, http.StatusBadRequest},
		// A machine no run could use is refused at load: a GPU count that
		// used to build a model of each GPU for every run, and a host pool
		// larger than main memory that used to fail every run with a 500.
		{"PUT", "/v1/graphs/bad", `{"spec":"RMAT26@15","gpus":1048576}`, http.StatusBadRequest},
		{"PUT", "/v1/graphs/bad", `{"spec":"RMAT26@15","storage":"ssd","pool_bytes":1099511627776}`, http.StatusBadRequest},
		// Run parameters are checked before a kernel is built: a sketch count
		// like this one used to panic the goroutine running the engine while
		// sizing the state, taking the process with it.
		{"POST", "/v1/graphs/social/radius", `{"sketches":1099511627776}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/radius", `{"sketches":33}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/radius", `{"maxhops":-1}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/radius", `{"maxhops":2147483648}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/pagerank", `{"damping":1e308}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/pagerank", `{"damping":1}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/pagerank", `{"iterations":-3}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/pagerank", `{"iterations":2147483648}`, http.StatusBadRequest},
		// Past kernels.MaxLevels a scan used to run until the engine's depth
		// guard failed it, and answered 500.
		{"POST", "/v1/graphs/social/pagerank", `{"iterations":32001}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/rwr", `{"iterations":32001}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/ball", `{"hops":32001}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/radius", `{"maxhops":32001}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/rwr", `{"restart":-0.5}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/rwr", `{"iterations":-1}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/kcore", `{"k":-2}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/ball", `{"hops":32768}`, http.StatusBadRequest},
		{"POST", "/v1/graphs/social/ball", `{"hops":-1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s %s = %d, want %d", c.method, c.path, c.body, resp.StatusCode, c.want)
		}
	}
	// The process survived every case above: the largest legal radius
	// request runs.
	if resp, doc := postJSON(t, ts.URL+"/v1/graphs/social/radius", map[string]any{"sketches": 32}); resp.StatusCode != http.StatusOK {
		t.Fatalf("radius with 32 sketches = %d (%v)", resp.StatusCode, doc)
	}

	// Deterministic 504 and 429 from the one admission bound (2 jobs): hold
	// the graph's System so the first job takes the graph's run token and
	// waits.
	release := service.HoldSystem(sys)
	defer release()

	resp, doc := postJSON(t, ts.URL+"/v1/graphs/social/bfs?mode=async", map[string]any{"source": 50})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d (%v)", resp.StatusCode, doc)
	}
	id, _ := doc["id"].(string)
	waitForHTTP(t, func() bool {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var job map[string]any
		return json.NewDecoder(r.Body).Decode(&job) == nil && job["state"] == "running"
	}, "the first job to start")

	// A sync request with a short deadline takes the second place, waits for
	// the run token behind the held job, and answers 504; its place is free
	// again once it has answered.
	resp, doc = postJSON(t, ts.URL+"/v1/graphs/social/pagerank?timeout=40ms", nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("deadline run = %d (%v), want 504", resp.StatusCode, doc)
	}

	// Fill the bound, then overflow it.
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/social/bfs?mode=async", map[string]any{"source": 51})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second admission = %d", resp.StatusCode)
	}
	resp, doc = postJSON(t, ts.URL+"/v1/graphs/social/bfs?mode=async", map[string]any{"source": 52})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow = %d (%v), want 429", resp.StatusCode, doc)
	}
}

// metricsValue scrapes one un-labeled numeric series from /metrics.
func metricsValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func waitForHTTP(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMetricsEndpointConsistency cross-checks the rendered exposition
// against the Stats snapshot after a known workload.
// TestHTTPSourceOutOfRangeIs400: a source the graph does not have is the
// caller's mistake — 400 naming the vertex count — whether it arrives alone
// or inside a burst; the daemon (whose engine goroutine a kernel's unchecked
// index used to panic) keeps answering, and the burst's other jobs succeed.
func TestHTTPSourceOutOfRangeIs400(t *testing.T) {
	_, ts, _ := httpServer(t, service.Config{})
	resp, doc := postJSON(t, ts.URL+"/v1/graphs/social/bfs", map[string]any{"source": uint64(1) << 40})
	if msg, _ := doc["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "2048 vertices") {
		t.Fatalf("bfs from 2^40 = %d %v, want 400 naming 2048 vertices", resp.StatusCode, doc)
	}
	type answer struct {
		source uint64
		status int
	}
	answers := make(chan answer, 3)
	for _, src := range []uint64{7, 5000, 9} {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/graphs/social/bfs", "application/json", strings.NewReader(fmt.Sprintf(`{"source":%d}`, src)))
			if err != nil {
				answers <- answer{src, 0}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			answers <- answer{src, resp.StatusCode}
		}()
	}
	for range 3 {
		a := <-answers
		if want := map[uint64]int{7: 200, 5000: 400, 9: 200}[a.source]; a.status != want {
			t.Errorf("burst: bfs from %d = %d, want %d", a.source, a.status, want)
		}
	}
}

func TestMetricsEndpointConsistency(t *testing.T) {
	srv, ts, _ := httpServer(t, service.Config{})
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/graphs/social/bfs", map[string]any{"source": 7})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bfs run %d = %d", i, resp.StatusCode)
		}
	}
	st := srv.Stats()
	if st.Completed != 3 || st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	checks := map[string]float64{
		"gtsd_jobs_submitted_total": float64(st.Submitted),
		"gtsd_jobs_completed_total": float64(st.Completed),
		"gtsd_cache_hits_total":     float64(st.CacheHits),
		"gtsd_cache_misses_total":   float64(st.CacheMisses),
		"gtsd_inflight_jobs":        0,
		"gtsd_queue_depth":          0,
		"gtsd_graphs_loaded":        1,
	}
	for name, want := range checks {
		if got := metricsValue(t, ts.URL, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Histogram sanity: bfs count matches completions, +Inf bucket is
	// cumulative.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `gtsd_job_latency_seconds_count{algo="bfs"} 3`) {
		t.Errorf("latency count line missing:\n%s", text)
	}
	if !strings.Contains(text, fmt.Sprintf(`gtsd_job_latency_seconds_bucket{algo="bfs",le="+Inf"} %d`, 3)) {
		t.Errorf("+Inf bucket missing:\n%s", text)
	}
	if !strings.Contains(text, `gtsd_job_virtual_seconds_total{algo="bfs"}`) {
		t.Error("virtual seconds series missing")
	}
}

// TestHTTPWontFitIs422: a job whose working attributes do not fit the graph's
// device beside the stream buffers can never run on that graph's
// configuration, so it answers 422, not 500, and counts as a failed job; a
// job that fits still runs there.
func TestHTTPWontFitIs422(t *testing.T) {
	g, _ := testGraphPair(t)
	// Device memory = stream buffers + 3 bytes per vertex: BFS's 2 B/vertex
	// fits, CC's 4 B/vertex does not. (Neither kernel streams RA, so the
	// buffers are two pages per stream.)
	const streams = 4
	want := int64(streams*2*g.Config().PageSize) + 3*int64(g.NumVertices())
	sys, err := gts.NewSystem(g, gts.Config{Streams: streams, ScaleFactor: (12 << 30) / want})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{})
	if err := srv.AddGraph("tight", sys); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	resp, doc := postJSON(t, ts.URL+"/v1/graphs/tight/cc", nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("cc on a device too small for its WA = %d (%v), want 422", resp.StatusCode, doc)
	}
	if got := metricsValue(t, ts.URL, "gtsd_jobs_failed_total"); got != 1 {
		t.Errorf("gtsd_jobs_failed_total = %v, want 1", got)
	}
	if resp, doc := postJSON(t, ts.URL+"/v1/graphs/tight/bfs", map[string]any{"source": 1}); resp.StatusCode != http.StatusOK {
		t.Errorf("bfs, whose WA fits, = %d (%v), want 200", resp.StatusCode, doc)
	}
}
