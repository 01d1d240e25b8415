package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	gts "repro"
	"repro/internal/csr"
	"repro/internal/graphgen"
	"repro/internal/kernels"
	"repro/internal/service"
	"repro/internal/verify"
)

// testGraphs caches the two tiny proxy graphs every test shares.
var (
	graphOnce sync.Once
	graphA    *gts.Graph // "social": RMAT27 proxy, 2048 vertices
	graphB    *gts.Graph // "web": RMAT26 proxy, 2048 vertices
)

func testGraphPair(t *testing.T) (*gts.Graph, *gts.Graph) {
	t.Helper()
	graphOnce.Do(func() {
		var err error
		if graphA, err = gts.Open("RMAT27@16"); err != nil {
			t.Fatal(err)
		}
		if graphB, err = gts.Open("RMAT26@15"); err != nil {
			t.Fatal(err)
		}
	})
	if graphA == nil || graphB == nil {
		t.Fatal("graph generation failed in an earlier test")
	}
	return graphA, graphB
}

// rawGraph returns the edge-list form of a test graph ("social" or, by
// default, the first of the pair; "web" the second) for the sequential
// references in internal/verify.
func rawGraph(t *testing.T, name string) *csr.Graph {
	t.Helper()
	dataset, shrink := "RMAT27", 16
	if name == "web" {
		dataset, shrink = "RMAT26", 15
	}
	d, ok := graphgen.ByName(dataset)
	if !ok {
		t.Fatalf("no dataset %q", dataset)
	}
	return d.MustGenerate(shrink)
}

// wantReference checks a result's payload against internal/verify — an
// oracle that shares no code with the engine. (A direct gts.System call is
// not one: it runs the same engine the service does.) p is the job's normalized Params. Algorithms without a check here
// are compared against gts.System only.
func wantReference(t *testing.T, raw *csr.Graph, p service.Params, output any) {
	t.Helper()
	switch r := output.(type) {
	case *gts.BFSResult:
		for v, want := range verify.BFS(raw, uint32(p.Source)) {
			if r.Levels[v] != want {
				t.Fatalf("bfs from %d: vertex %d level = %d, reference %d", p.Source, v, r.Levels[v], want)
			}
		}
	case *gts.PageRankResult:
		for v, want := range verify.PageRank(raw, p.Damping, p.Iterations) {
			if math.Abs(float64(r.Ranks[v])-want) > 1e-4*math.Max(want, 1e-9)+1e-7 {
				t.Fatalf("pagerank(%d): vertex %d rank = %v, reference %v", p.Iterations, v, r.Ranks[v], want)
			}
		}
	case *gts.SSSPResult:
		for v, want := range verify.SSSP(raw, uint32(p.Source), kernels.Weight) {
			if !math.IsInf(want, 1) && float64(r.Dist[v]) != want {
				t.Fatalf("sssp from %d: vertex %d dist = %v, reference %v", p.Source, v, r.Dist[v], want)
			}
		}
	case *gts.CCResult:
		for v, want := range verify.WCC(raw) {
			if r.Labels[v] != want {
				t.Fatalf("cc: vertex %d label = %d, reference %d", v, r.Labels[v], want)
			}
		}
	case *gts.KCoreResult:
		for v, want := range verify.KCore(raw, p.K) {
			if r.InCore[v] != want {
				t.Fatalf("kcore(%d): vertex %d = %v, reference %v", p.K, v, r.InCore[v], want)
			}
		}
	}
}

// twoGraphServer builds a server with graphs "social" and "web" registered
// over fresh Systems.
func twoGraphServer(t *testing.T, cfg service.Config) *service.Server {
	t.Helper()
	ga, gb := testGraphPair(t)
	srv := service.New(cfg)
	sysA, err := gts.NewSystem(ga, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := gts.NewSystem(gb, gts.Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("social", sysA); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("web", sysB); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// directOutput runs the request's algorithm on a standalone System with
// the same engine config the named graph's uses, returning the result's JSON.
func directOutput(t *testing.T, req service.Request) []byte {
	t.Helper()
	ga, gb := testGraphPair(t)
	g, cfg := ga, gts.Config{}
	if req.Graph == "web" {
		g, cfg = gb, gts.Config{GPUs: 2}
	}
	sys, err := gts.NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out any
	switch req.Algo {
	case "bfs":
		out, err = sys.BFS(req.Params.Source)
	case "pagerank":
		out, err = sys.PageRank(0.85, 10)
	case "sssp":
		out, err = sys.SSSP(req.Params.Source)
	case "cc":
		out, err = sys.CC()
	case "kcore":
		out, err = sys.KCore(3)
	default:
		t.Fatalf("directOutput: no reference path for %q", req.Algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestServiceEndToEnd is the acceptance test from ISSUE 1: ≥16 concurrent
// jobs across 2 graphs and 5 algorithms, each answer equal to the
// sequential reference and its payload byte-identical to a direct System
// call (the metrics differ: a job runs on the device the jobs before it
// left warm), with the
// cache serving repeats and consistent counters.
func TestServiceEndToEnd(t *testing.T) {
	srv := twoGraphServer(t, service.Config{QueueDepth: 64})

	var reqs []service.Request
	for _, graph := range []string{"social", "web"} {
		for _, algo := range []string{"bfs", "pagerank", "sssp", "cc", "kcore"} {
			reqs = append(reqs, service.Request{Graph: graph, Algo: algo})
		}
		// Distinct sources make distinct cache keys.
		for _, src := range []uint64{1, 2, 3} {
			reqs = append(reqs, service.Request{Graph: graph, Algo: "bfs", Params: service.Params{Source: src}})
		}
	}
	if len(reqs) < 16 {
		t.Fatalf("only %d requests", len(reqs))
	}

	// Round 1: all concurrent, all computed.
	jobs := make([]*service.Job, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req service.Request) {
			defer wg.Done()
			job, err := srv.Run(context.Background(), req)
			if err != nil {
				t.Errorf("%s/%s: %v", req.Graph, req.Algo, err)
				return
			}
			jobs[i] = job
		}(i, req)
	}
	wg.Wait()

	for i, job := range jobs {
		if job == nil {
			continue
		}
		if job.State() != service.JobDone {
			t.Errorf("job %d state = %v", i, job.State())
			continue
		}
		if job.Cached() {
			t.Errorf("job %d unexpectedly served from cache on first round", i)
		}
		res, err := job.Result()
		if err != nil || res == nil {
			t.Errorf("job %d result: %v", i, err)
			continue
		}
		got, err := json.Marshal(res.Output)
		if err != nil {
			t.Fatal(err)
		}
		if want := directOutput(t, reqs[i]); !sameOutput(got, want) {
			t.Errorf("%s/%s #%d: service result not byte-identical to direct run", reqs[i].Graph, reqs[i].Algo, i)
		}
		wantReference(t, rawGraph(t, reqs[i].Graph), job.Request().Params, res.Output)
		if res.Metrics.Elapsed <= 0 {
			t.Errorf("job %d: no virtual time recorded", i)
		}
	}

	// Round 2: identical requests must be cache hits — including
	// parameter-normalized variants (explicit defaults share the entry).
	st1 := srv.Stats()
	round2 := append([]service.Request{}, reqs...)
	round2 = append(round2,
		service.Request{Graph: "social", Algo: "pagerank", Params: service.Params{Damping: 0.85, Iterations: 10}},
		service.Request{Graph: "web", Algo: "kcore", Params: service.Params{K: 3}},
	)
	for _, req := range round2 {
		job, err := srv.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("round 2 %s/%s: %v", req.Graph, req.Algo, err)
		}
		if !job.Cached() {
			t.Errorf("round 2 %s/%s %+v not served from cache", req.Graph, req.Algo, req.Params)
		}
	}
	st2 := srv.Stats()
	if hits := st2.CacheHits - st1.CacheHits; hits != uint64(len(round2)) {
		t.Errorf("round 2 cache hits = %d, want %d", hits, len(round2))
	}
	if st2.CacheHits == 0 {
		t.Error("cache hit counter is zero")
	}

	// Counter consistency.
	if want := uint64(len(reqs) + len(round2)); st2.Submitted != want {
		t.Errorf("submitted = %d, want %d", st2.Submitted, want)
	}
	if st2.Completed != st2.Submitted {
		t.Errorf("completed = %d, submitted = %d", st2.Completed, st2.Submitted)
	}
	if st2.Failed != 0 || st2.TimedOut != 0 || st2.Rejected != 0 {
		t.Errorf("failed/timedout/rejected = %d/%d/%d, want 0", st2.Failed, st2.TimedOut, st2.Rejected)
	}
	if st2.CacheMisses != uint64(len(reqs)) {
		t.Errorf("cache misses = %d, want %d (one per computed job)", st2.CacheMisses, len(reqs))
	}
	if st2.InFlight != 0 || st2.QueueDepth != 0 {
		t.Errorf("inflight/queue = %d/%d after drain", st2.InFlight, st2.QueueDepth)
	}
	var jobsSum uint64
	for _, a := range st2.PerAlgo {
		jobsSum += a.Jobs
	}
	if jobsSum != st2.Completed {
		t.Errorf("per-algo jobs sum = %d, completed = %d", jobsSum, st2.Completed)
	}
	if st2.PerAlgo["pagerank"].VirtualElapsed <= 0 {
		t.Error("pagerank virtual time not accumulated")
	}
}

// TestOverloadAndTimeout pins admission control and deadline outcomes
// deterministically by holding the graph's System from the outside: QueueDepth
// bounds the jobs admitted and not yet answered, wherever they wait.
func TestOverloadAndTimeout(t *testing.T) {
	g, _ := testGraphPair(t)
	srv := service.New(service.Config{QueueDepth: 3})
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("g", sys); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Hold the System so every admitted job waits: the first to run, the
	// rest for the graph's run token.
	release := service.HoldSystem(sys)

	// Job A takes the graph's run token and waits for the System.
	jobA, err := srv.Submit(service.Request{Graph: "g", Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return jobA.State() == service.JobRunning }, "job A to start")

	// B and C queue behind it and fill the bound; D must be rejected.
	for _, src := range []uint64{10, 11} {
		if _, err := srv.Submit(service.Request{Graph: "g", Algo: "bfs", Params: service.Params{Source: src}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Submit(service.Request{Graph: "g", Algo: "bfs", Params: service.Params{Source: 12}}); err != service.ErrOverloaded {
		t.Errorf("overflow submit = %v, want ErrOverloaded", err)
	}
	if srv.Stats().Rejected != 1 {
		t.Errorf("rejected = %d, want 1", srv.Stats().Rejected)
	}

	// A deadline that expires while the engine is unavailable times out.
	jobT, err := srv.Submit(service.Request{Graph: "g", Algo: "pagerank", Timeout: 30 * time.Millisecond})
	if err != service.ErrOverloaded {
		// A, B and C are unanswered: this submission must also be rejected.
		t.Errorf("submit into full queue = %v", err)
	}
	_ = jobT

	// Release the System: A, B, C drain.
	release()
	<-jobA.Done()
	if jobA.State() != service.JobDone {
		t.Errorf("job A = %v (%v)", jobA.State(), jobA.Err())
	}
	waitFor(t, func() bool { return srv.Stats().Completed == 3 }, "queue to drain")

	// Now hold it again for a deterministic timeout outcome.
	release = service.HoldSystem(sys)
	jobT, err = srv.Submit(service.Request{Graph: "g", Algo: "pagerank", Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-jobT.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("timeout job never finished")
	}
	if jobT.State() != service.JobTimedOut {
		t.Errorf("deadline job state = %v, want timedout", jobT.State())
	}
	if err := jobT.Err(); err == nil || !isTimeout(err) {
		t.Errorf("deadline job error = %v, want ErrTimeout", err)
	}
	if srv.Stats().TimedOut != 1 {
		t.Errorf("timedout counter = %d, want 1", srv.Stats().TimedOut)
	}
	release()

	// Final ledger: every admitted job reached exactly one terminal state.
	st := srv.Stats()
	if st.Submitted != st.Completed+st.Failed+st.TimedOut {
		t.Errorf("ledger mismatch: submitted %d != completed %d + failed %d + timedout %d",
			st.Submitted, st.Completed, st.Failed, st.TimedOut)
	}
}

func isTimeout(err error) bool { return errors.Is(err, service.ErrTimeout) }

// TestSubmitValidation covers the typed admission errors.
func TestSubmitValidation(t *testing.T) {
	srv := twoGraphServer(t, service.Config{})
	if _, err := srv.Submit(service.Request{Graph: "nope", Algo: "bfs"}); err == nil {
		t.Error("unknown graph accepted")
	}
	if _, err := srv.Submit(service.Request{Graph: "social", Algo: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := srv.Lookup("job-999999"); err == nil {
		t.Error("unknown job looked up")
	}
}

// TestAsyncLifecycle follows a job through Submit → Lookup → Done.
func TestAsyncLifecycle(t *testing.T) {
	srv := twoGraphServer(t, service.Config{})
	job, err := srv.Submit(service.Request{Graph: "social", Algo: "degree"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Lookup(job.ID())
	if err != nil || got != job {
		t.Fatalf("Lookup(%s) = %v, %v", job.ID(), got, err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("async job never finished")
	}
	res, err := job.Result()
	if err != nil || res == nil {
		t.Fatalf("result: %v", err)
	}
	if res.Algo != "degree" || job.Latency() <= 0 {
		t.Errorf("result algo %q, latency %v", res.Algo, job.Latency())
	}
}

// TestShutdownDrains verifies queued jobs finish during Shutdown and new
// submissions are refused.
func TestShutdownDrains(t *testing.T) {
	srv := twoGraphServer(t, service.Config{QueueDepth: 32})
	var jobs []*service.Job
	for i := 0; i < 8; i++ {
		job, err := srv.Submit(service.Request{Graph: "social", Algo: "bfs", Params: service.Params{Source: uint64(100 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		select {
		case <-job.Done():
		default:
			t.Fatalf("job %d not finished after Shutdown", i)
		}
		if job.State() != service.JobDone {
			t.Errorf("job %d = %v after drain", i, job.State())
		}
	}
	if _, err := srv.Submit(service.Request{Graph: "social", Algo: "bfs"}); err != service.ErrShuttingDown {
		t.Errorf("post-shutdown submit = %v, want ErrShuttingDown", err)
	}
	// Shutdown is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGraphReplaceInvalidatesCache reloads a name and checks the old
// cached answers are not served for the new graph.
func TestGraphReplaceInvalidatesCache(t *testing.T) {
	ga, gb := testGraphPair(t)
	srv := service.New(service.Config{})
	defer srv.Close()
	sys, err := gts.NewSystem(ga, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("g", sys); err != nil {
		t.Fatal(err)
	}
	job1, err := srv.Run(context.Background(), service.Request{Graph: "g", Algo: "cc"})
	if err != nil {
		t.Fatal(err)
	}
	res1, _ := job1.Result()

	sys2, err := gts.NewSystem(gb, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("g", sys2); err != nil {
		t.Fatal(err)
	}
	job2, err := srv.Run(context.Background(), service.Request{Graph: "g", Algo: "cc"})
	if err != nil {
		t.Fatal(err)
	}
	if job2.Cached() {
		t.Error("replaced graph served the old graph's cached result")
	}
	res2, _ := job2.Result()
	b1, _ := json.Marshal(res1.Output)
	b2, _ := json.Marshal(res2.Output)
	if bytes.Equal(b1, b2) {
		t.Error("expected different CC results for different graphs")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAlgorithmsList pins the algorithm table the service serves.
func TestAlgorithmsList(t *testing.T) {
	want := []string{"ball", "bc", "bfs", "cc", "degree", "kcore", "pagerank", "radius", "rwr", "sssp"}
	got := gts.Algorithms()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Algorithms() = %v, want %v", got, want)
	}
}
