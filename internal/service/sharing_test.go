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

// TestChaosSharedWaveGroups is the service-level acceptance test for
// multi-query stream sharing: 32 concurrent jobs (16 BFS sources + 16
// PageRank iteration counts) on one graph under an absorbable fault plan.
// Every answer must equal the sequential reference and be byte-identical to
// the same job run alone on a fault-free System, the wave-group counters
// must show pages were shared, and /metrics must expose the sharing series.
// Run under -race via `make test-race`.
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

	// A job answers when it leaves its wave group; the group's own counters
	// are in once it has ended, which Close waits for.
	srv.Close()
	st := srv.Stats()
	if st.Sharing.WaveGroups == 0 || st.Sharing.GroupJobs == 0 {
		t.Errorf("no wave groups ran: %+v", st.Sharing)
	}
	if st.Sharing.GroupJobs > 1 && st.Sharing.SharedPageCopies == 0 {
		t.Errorf("grouped %d jobs but shared no pages: %+v", st.Sharing.GroupJobs, st.Sharing)
	}
	if st.Sharing.BytesToGPU <= 0 {
		t.Errorf("Sharing.BytesToGPU = %d", st.Sharing.BytesToGPU)
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
	// sharing series must carry this run's copies.
	if st.Sharing.SharedPageCopies > 0 && !metricAbove(string(metrics), "gtsd_shared_page_copies_total", 0) {
		t.Error("gtsd_shared_page_copies_total is zero on /metrics despite shared copies")
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
// Metrics (wave-group data movement legitimately differs from solo; the
// functional payload must not).
func sameOutput(a, b []byte) bool {
	var ma, mb map[string]json.RawMessage
	if json.Unmarshal(a, &ma) != nil || json.Unmarshal(b, &mb) != nil {
		return false
	}
	// "Levels" stays: it is the functional depth/iteration count (and BFS's
	// payload field), identical between shared and solo by the engine's
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

// TestBurstRidesOneWaveGroup: 8 BFS jobs admitted while the graph's System is
// held ride one wave group once it is released — at most four at a time
// (sched's MaxGroup), each joiner taking the place of a member that left —
// so the last four to answer ran on a device page cache the first ones had
// warmed.
func TestBurstRidesOneWaveGroup(t *testing.T) {
	g, _ := testGraphPair(t)
	srv := service.New(service.Config{CacheEntries: -1})
	defer srv.Close()
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddGraph("g", sys); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats().Sharing

	release := service.HoldSystem(sys)
	jobs := make([]*service.Job, 8)
	for i := range jobs {
		if jobs[i], err = srv.Submit(service.Request{Graph: "g", Algo: "bfs", Params: service.Params{Source: uint64(i * 100)}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return srv.Stats().InFlight > 0 }, "a wave group to take the first jobs")
	var (
		mu       sync.Mutex
		answered []*service.Job
		wg       sync.WaitGroup
	)
	for _, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-job.Done()
			mu.Lock()
			answered = append(answered, job)
			mu.Unlock()
		}()
	}
	release()
	wg.Wait()
	srv.Close() // the group's counters are in once it has ended

	for i, job := range answered {
		res, err := job.Result()
		if err != nil {
			t.Fatalf("job %s: %v", job.ID(), err)
		}
		t.Logf("answer %d: %s hit rate %.3f", i, job.ID(), res.Metrics.CacheHitRate)
		if i >= 4 && res.Metrics.CacheHitRate == 0 {
			t.Errorf("answer %d (%s) found the device page cache cold", i, job.ID())
		}
	}
	after := srv.Stats().Sharing
	if groups, served := after.WaveGroups-before.WaveGroups, after.GroupJobs-before.GroupJobs; groups != 1 || served != 8 {
		t.Errorf("%d wave groups served %d jobs, want one group of 8", groups, served)
	}
}
