package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	gts "repro"
	"repro/internal/service"
)

// TestCoalesceIdenticalSubmissions pins single-flight dedup: identical
// requests submitted while the first is still in flight ride on it instead
// of recomputing, and the coalesced counter says so.
func TestCoalesceIdenticalSubmissions(t *testing.T) {
	g, _ := testGraphPair(t)
	srv := service.New(service.Config{QueueDepth: 8})
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("g", sys); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Hold the System so the leader cannot finish while the followers
	// submit — the dedup window stays deterministically open.
	release := service.HoldSystem(sys)

	req := service.Request{Graph: "g", Algo: "bfs", Params: service.Params{Source: 7}}
	leader, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	followers := make([]*service.Job, 3)
	for i := range followers {
		if followers[i], err = srv.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().Coalesced; got != uint64(len(followers)) {
		t.Errorf("coalesced = %d, want %d", got, len(followers))
	}

	release()
	<-leader.Done()
	lres, err := leader.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(lres.Output)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range followers {
		<-f.Done()
		fres, err := f.Result()
		if err != nil {
			t.Fatalf("follower %d: %v", i, err)
		}
		if !f.Cached() {
			t.Errorf("follower %d not marked as a shared answer", i)
		}
		got, err := json.Marshal(fres.Output)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("follower %d output differs from leader", i)
		}
	}

	// A submission after the leader finished is a cache hit, not a coalesce.
	after, err := srv.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Cached() {
		t.Error("post-completion repeat not served from cache")
	}
	if got := srv.Stats().Coalesced; got != uint64(len(followers)) {
		t.Errorf("coalesced moved to %d after completion, want %d", got, len(followers))
	}
}

// TestIdenticalBurstComputesOnce: 64 goroutines submit one request over and
// over while its first copy runs, and once more after it finished, so
// submissions straddle the moment the first copy answers. Admission decides
// cache hit, coalesce or enqueue in one critical section, and the first copy
// caches its answer before it leaves the single-flight table, so exactly one
// job computes and queues: every other is a cache hit or a follower, and all
// answer with the first copy's result.
func TestIdenticalBurstComputesOnce(t *testing.T) {
	g, _ := testGraphPair(t)
	srv := service.New(service.Config{QueueDepth: 128})
	defer srv.Close()
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("g", sys); err != nil {
		t.Fatal(err)
	}
	req := service.Request{Graph: "g", Algo: "pagerank", Params: service.Params{Iterations: 3}}
	first, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return first.State() != service.JobQueued }, "the first copy to run")

	var (
		mu   sync.Mutex
		jobs []*service.Job
		wg   sync.WaitGroup
	)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for finished := false; !finished; {
				select {
				case <-first.Done():
					finished = true
				default:
				}
				job, err := srv.Submit(req)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				jobs = append(jobs, job)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	want, err := first.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		<-job.Done()
		res, err := job.Result()
		if err != nil || res != want || !job.Cached() {
			t.Errorf("job %d: result %p (first copy's %p), cached %v, err %v", i, res, want, job.Cached(), err)
		}
	}
	st := srv.Stats()
	if st.RunWall.Count != 1 || st.QueueWait.Count != 1 {
		t.Errorf("%d jobs computed and %d queued, want 1 and 1", st.RunWall.Count, st.QueueWait.Count)
	}
	if st.CacheHits+st.Coalesced != uint64(len(jobs)) {
		t.Errorf("cache hits %d + coalesced %d, want %d", st.CacheHits, st.Coalesced, len(jobs))
	}
}

// TestChaosSharedWaveGroups is the service-level acceptance test for the
// engine's RunShared path, which gtsd runs every job through as a roster of
// one: 32 concurrent jobs (16 BFS sources + 16 PageRank iteration counts)
// on one graph under an absorbable fault plan, each on a device the jobs
// before it left warm. Every answer must equal the sequential reference and
// be byte-identical to the same job run alone on a fault-free System, the
// run tally must count every job's run and its traffic, and /metrics must
// carry that traffic. Run under -race via `make test-race`.
func TestChaosSharedWaveGroups(t *testing.T) {
	g, _ := testGraphPair(t)
	srv := service.New(service.Config{QueueDepth: 64})
	plan := &gts.FaultPlan{Seed: 21, TransferErrorRate: 0.05, TransferStallRate: 0.05}
	sys, err := gts.NewSystem(g, gts.Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("shared", sys); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// The same jobs, each alone on a fault-free System: faults and company
	// must not move a byte. wantReference below supplies the independent
	// oracle.
	raw := rawGraph(t, "social")
	clean, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantLevels := make([][]int16, 16)
	for i := range wantLevels {
		res, err := clean.BFS(uint64(i * 128))
		if err != nil {
			t.Fatal(err)
		}
		wantLevels[i] = res.Levels
	}
	wantRanks := make([][]float32, 16)
	for i := range wantRanks {
		res, err := clean.PageRank(0.85, i+1)
		if err != nil {
			t.Fatal(err)
		}
		wantRanks[i] = res.Ranks
	}

	const n = 32
	jobs := make([]*service.Job, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		req := service.Request{Graph: "shared", Algo: "bfs", Params: service.Params{Source: uint64(i * 128)}}
		if i >= 16 {
			req = service.Request{Graph: "shared", Algo: "pagerank", Params: service.Params{Iterations: i - 15}}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs[i], errs[i] = srv.Run(context.Background(), req)
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		res, err := jobs[i].Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if i < 16 {
			out := res.Output.(*gts.BFSResult)
			if !equalLevels(out.Levels, wantLevels[i]) {
				t.Errorf("BFS job %d differs from clean solo run", i)
			}
		} else {
			out := res.Output.(*gts.PageRankResult)
			if !equalRanks(out.Ranks, wantRanks[i-16]) {
				t.Errorf("PageRank job %d differs from clean solo run", i)
			}
		}
		wantReference(t, raw, jobs[i].Request().Params, res.Output)
	}

	// A job answers as its run ends; the run's own counters are in once it
	// has returned, which Close waits for.
	srv.Close()
	st := srv.Stats()
	if st.Sharing.WaveGroups != n || st.Sharing.GroupJobs != n {
		t.Errorf("%d runs served %d jobs, want %d of each: %+v", st.Sharing.WaveGroups, st.Sharing.GroupJobs, n, st.Sharing)
	}
	if st.Sharing.PageCopies <= 0 || st.Sharing.BytesToGPU <= 0 {
		t.Errorf("the runs copied %d pages and %d bytes to the GPUs", st.Sharing.PageCopies, st.Sharing.BytesToGPU)
	}
	if st.Faults.Injected() == 0 {
		t.Error("fault plan injected nothing through the shared path")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Which series /metrics declares is TestMetricsConformance's pin; here the
	// traffic series must carry these runs' copies.
	if !metricAbove(string(metrics), "gtsd_page_copies_total", 0) {
		t.Error("gtsd_page_copies_total is zero on /metrics despite the runs' copies")
	}
}

func equalLevels(a, b []int16) bool {
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

func equalRanks(a, b []float32) bool {
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

// TestSharedGraphServesSoloAlgorithms: every algorithm in the table, served
// with default parameters, produces the payload System.Run does with the
// same (empty) Params, and the reference answer where internal/verify has
// one.
func TestSharedGraphServesSoloAlgorithms(t *testing.T) {
	g, _ := testGraphPair(t)
	srv := service.New(service.Config{})
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("shared", sys); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clean, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range gts.Algorithms() {
		job, err := srv.Run(context.Background(), service.Request{Graph: "shared", Algo: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		res, err := job.Result()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got, err := json.Marshal(res.Output)
		if err != nil {
			t.Fatal(err)
		}
		want, err := clean.Run(algo, gts.Params{})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutput(got, wantJSON) {
			t.Errorf("%s through the service differs from the gts.System call", algo)
		}
		wantReference(t, rawGraph(t, "social"), job.Request().Params, res.Output)
	}
}

// sameOutput compares two result JSON documents ignoring the embedded
// Metrics (data movement on a warm device legitimately differs from a fresh
// System's; the functional payload must not).
func sameOutput(a, b []byte) bool {
	var ma, mb map[string]json.RawMessage
	if json.Unmarshal(a, &ma) != nil || json.Unmarshal(b, &mb) != nil {
		return false
	}
	// "Levels" stays: it is the functional depth/iteration count (and BFS's
	// payload field), identical between warm and cold by the engine's
	// determinism invariant.
	metricsFields := map[string]bool{
		"Elapsed": true, "PagesStreamed": true, "CacheHitRate": true,
		"BufferHitRate": true, "BytesToGPU": true, "StorageBytes": true,
		"TransferTime": true, "KernelTime": true, "WABytes": true, "MTEPS": true,
		"LevelPages": true, "LevelBytes": true, "Faults": true,
	}
	for k := range metricsFields {
		delete(ma, k)
		delete(mb, k)
	}
	if len(ma) != len(mb) {
		return false
	}
	for k, v := range ma {
		if !bytes.Equal(v, mb[k]) {
			return false
		}
	}
	return true
}
