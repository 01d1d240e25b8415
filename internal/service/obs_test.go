package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/trace"
)

// TestRunWallQuantilesAgainstOracle pins the /metrics run-wall histogram to
// an exact oracle: every computed job reports its exact wall time in
// Result.Wall, so the service-level quantiles must bracket the sorted-
// sample quantiles within one log bucket (factor obs.Gamma) — the bound
// internal/obs documents.
func TestRunWallQuantilesAgainstOracle(t *testing.T) {
	srv := addTwoGraphs(t, service.NewUncached(service.Config{}))
	const jobs = 12
	var walls []float64
	for i := 0; i < jobs; i++ {
		job, err := srv.Run(context.Background(), service.Request{
			Graph: "social", Algo: "bfs", Params: service.Params{Source: uint64(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := job.Result()
		walls = append(walls, res.Wall.Seconds())
	}
	st := srv.Stats()
	if st.RunWall.Count != jobs {
		t.Fatalf("RunWall.Count = %d, want %d", st.RunWall.Count, jobs)
	}
	if st.QueueWait.Count != jobs {
		t.Fatalf("QueueWait.Count = %d, want %d (every dequeued job observes its wait)", st.QueueWait.Count, jobs)
	}
	sort.Float64s(walls)
	const eps = 1e-9
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.5, st.RunWall.P50}, {0.9, st.RunWall.P90}, {0.99, st.RunWall.P99}} {
		exact := walls[int(math.Ceil(c.q*float64(jobs)))-1]
		if c.got < exact*(1-eps) {
			t.Errorf("p%v = %v underestimates exact %v", c.q*100, c.got, exact)
		}
		if exact > 0 && c.got > exact*obs.Gamma*(1+eps) {
			t.Errorf("p%v = %v exceeds exact %v by more than one bucket (Gamma %v)", c.q*100, c.got, exact, obs.Gamma)
		}
	}
	if !(st.RunWall.P50 <= st.RunWall.P90 && st.RunWall.P90 <= st.RunWall.P99) {
		t.Errorf("run-wall quantiles not monotone: %+v", st.RunWall)
	}
	if !(st.QueueWait.P50 <= st.QueueWait.P90 && st.QueueWait.P90 <= st.QueueWait.P99) {
		t.Errorf("queue-wait quantiles not monotone: %+v", st.QueueWait)
	}
}

// TestMetricsHistogramSeries asserts /metrics exposes the new histogram
// families with coherent _count lines.
func TestMetricsHistogramSeries(t *testing.T) {
	srv, ts, _ := httpServer(t, service.Config{})
	for i := 0; i < 3; i++ {
		if _, err := srv.Run(context.Background(), service.Request{
			Graph: "social", Algo: "bfs", Params: service.Params{Source: uint64(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE gtsd_job_queue_wait_seconds histogram",
		"gtsd_job_queue_wait_seconds_count 3",
		"# TYPE gtsd_job_run_wall_seconds histogram",
		"gtsd_job_run_wall_seconds_count 3",
		"# TYPE gtsd_job_latency_seconds histogram",
		`gtsd_job_latency_seconds_count{algo="bfs"} 3`,
		`gtsd_job_queue_wait_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics output", want)
		}
	}
}

// TestJobTraceEndpoint: with tracing enabled, a computed job's trace is
// retrievable as valid Chrome trace JSON carrying the job's ID and the
// run → superstep → kernel hierarchy; cache hits and unknown jobs 404.
func TestJobTraceEndpoint(t *testing.T) {
	_, ts, _ := httpServer(t, service.Config{Trace: true})
	resp, doc := postJSON(t, ts.URL+"/v1/graphs/social/bfs", map[string]any{"source": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("no job id in response: %v", doc)
	}

	tr, err := http.Get(ts.URL + "/debug/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", tr.StatusCode)
	}
	raw, _ := io.ReadAll(tr.Body)
	rec, err := trace.Parse(raw)
	if err != nil {
		t.Fatalf("trace endpoint served unparseable bytes: %v", err)
	}
	if rec.ID() != id {
		t.Errorf("trace ID = %q, want job ID %q", rec.ID(), id)
	}
	var haveRun, haveStep, haveKernel bool
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.Run:
			haveRun = true
		case trace.Superstep:
			haveStep = true
		case trace.Kernel:
			haveKernel = true
		}
	}
	if !haveRun || !haveStep || !haveKernel {
		t.Errorf("trace missing hierarchy spans: run=%v superstep=%v kernel=%v", haveRun, haveStep, haveKernel)
	}
	// Perfetto-shape check: top-level object with a traceEvents array.
	var chromeDoc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chromeDoc); err != nil || len(chromeDoc.TraceEvents) == 0 {
		t.Errorf("trace is not chrome://tracing-loadable: err=%v events=%d", err, len(chromeDoc.TraceEvents))
	}

	// A cache-hit job never runs an engine, so it has no trace.
	resp2, doc2 := postJSON(t, ts.URL+"/v1/graphs/social/bfs", map[string]any{"source": 1})
	if resp2.StatusCode != http.StatusOK || doc2["cached"] != true {
		t.Fatalf("expected cached rerun, got status %d cached=%v", resp2.StatusCode, doc2["cached"])
	}
	if tr2, _ := http.Get(fmt.Sprintf("%s/debug/trace/%s", ts.URL, doc2["id"])); tr2.StatusCode != http.StatusNotFound {
		t.Errorf("cache-hit trace status %d, want 404", tr2.StatusCode)
	}
	if tr3, _ := http.Get(ts.URL + "/debug/trace/job-999999"); tr3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace status %d, want 404", tr3.StatusCode)
	}
}

// TestTraceDisabled404: without tracing the endpoint answers 404 even
// for real jobs.
func TestTraceDisabled404(t *testing.T) {
	_, ts, _ := httpServer(t, service.Config{})
	resp, doc := postJSON(t, ts.URL+"/v1/graphs/social/bfs", map[string]any{"source": 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	if tr, _ := http.Get(fmt.Sprintf("%s/debug/trace/%s", ts.URL, doc["id"])); tr.StatusCode != http.StatusNotFound {
		t.Errorf("trace status %d with tracing disabled, want 404", tr.StatusCode)
	}
}

// TestWithPprof: the wrapper serves the pprof index and still routes the
// service surface.
func TestWithPprof(t *testing.T) {
	srv := twoGraphServer(t, service.Config{})
	ts := httptest.NewServer(service.WithPprof(srv.Handler()))
	t.Cleanup(ts.Close)
	for path, wantStatus := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/pprof/symbol":  http.StatusOK,
		"/healthz":             http.StatusOK,
		"/metrics":             http.StatusOK,
		"/debug/trace/job-001": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}
}

// TestPerAlgoLatencyQuantiles: the Stats per-algo view carries monotone
// latency quantiles covering every completed job.
func TestPerAlgoLatencyQuantiles(t *testing.T) {
	srv := twoGraphServer(t, service.Config{})
	for i := 0; i < 4; i++ {
		if _, err := srv.Run(context.Background(), service.Request{
			Graph: "social", Algo: "pagerank", Params: service.Params{Damping: 0.85, Iterations: i + 2},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	a, ok := st.PerAlgo["pagerank"]
	if !ok || a.Jobs != 4 {
		t.Fatalf("pagerank stats = %+v, ok=%v", a, ok)
	}
	if a.LatencyP50 <= 0 || a.LatencyP50 > a.LatencyP90 || a.LatencyP90 > a.LatencyP99 {
		t.Errorf("latency quantiles wrong: p50=%v p90=%v p99=%v", a.LatencyP50, a.LatencyP90, a.LatencyP99)
	}
}
