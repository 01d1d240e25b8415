package service

import (
	"context"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	gts "repro"
)

// priorServer is an uncached incremental server over a mutable graph "mut",
// so every request runs and every bfs/cc run becomes its request's prior.
func priorServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Incremental = true
	srv := NewUncached(cfg)
	t.Cleanup(func() { srv.Close() })
	if err := srv.LoadMutableGraph("mut", "RMAT26@15", filepath.Join(t.TempDir(), "mut.wal"), gts.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	return srv
}

func runOK(t *testing.T, srv *Server, req Request) *Result {
	t.Helper()
	job, err := srv.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: %v", req.Algo, err)
	}
	res, _ := job.Result()
	return res
}

// incDelta is how the incremental counters moved between two snapshots.
func incDelta(before, after Stats) (hits, fallbacks uint64) {
	return after.IncrementalHits - before.IncrementalHits, after.IncrementalFallbacks - before.IncrementalFallbacks
}

// bfs0 is a retaining request: every run of it on an incremental server
// plans from its prior.
var bfs0 = Request{Graph: "mut", Algo: "bfs"}

// TestEvictedPriorFallsBackOnce: a prior is a job in the job table, so the
// table's byte bound is the priors' bound. A prior the table evicts makes
// the next incremental request of its key one counted fallback, whose run is
// the prior the request after it hits.
func TestEvictedPriorFallsBackOnce(t *testing.T) {
	srv := priorServer(t, Config{QueueDepth: 1})
	runOK(t, srv, bfs0) // cold: a fallback, and the prior
	if _, err := srv.Ingest("mut", []gts.EdgeOp{{Src: 5, Dst: 9}}); err != nil {
		t.Fatal(err)
	}
	if n := srv.Stats().Retained["mut"]; n != 1 {
		t.Fatalf("%d priors before the eviction, want 1", n)
	}
	srv.mu.Lock()
	srv.budget = 0 // the table keeps only its QueueDepth most recent jobs
	srv.mu.Unlock()
	runOK(t, srv, Request{Graph: "mut", Algo: "pagerank"})
	if n := srv.Stats().Retained["mut"]; n != 0 {
		t.Fatalf("%d priors after the table evicted the only one", n)
	}

	before := srv.Stats()
	runOK(t, srv, bfs0)
	if hits, falls := incDelta(before, srv.Stats()); hits != 0 || falls != 1 {
		t.Fatalf("after the eviction: hits +%d, fallbacks +%d; want +0, +1", hits, falls)
	}
	before = srv.Stats()
	runOK(t, srv, bfs0)
	if hits, falls := incDelta(before, srv.Stats()); hits != 1 || falls != 0 {
		t.Fatalf("after the fallback: hits +%d, fallbacks +%d; want +1, +0", hits, falls)
	}
}

// TestPriorFromBeforeACommitReplaysForward: a run admitted before an ingest
// that finishes after it is a valid prior, and the chain replays it forward:
// two commits later its request is a hit that answers byte-identically to a
// full run, and that hit replaces it as the prior.
func TestPriorFromBeforeACommitReplaysForward(t *testing.T) {
	srv := priorServer(t, Config{})
	srv.mu.Lock()
	sys := srv.graphs["mut"].sys
	srv.mu.Unlock()
	release := sync.OnceFunc(HoldSystem(sys))
	defer release()
	job, err := srv.Submit(bfs0)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return job.State() == JobRunning }, "the epoch-0 bfs to start")
	for _, op := range []gts.EdgeOp{{Src: 5, Dst: 9}, {Src: 7, Dst: 11}} {
		if _, err := srv.Ingest("mut", []gts.EdgeOp{op}); err != nil {
			t.Fatal(err)
		}
	}
	release()
	<-job.Done()
	if n := srv.Stats().Retained["mut"]; n != 1 {
		t.Fatalf("the run that raced two commits left %d priors, want 1", n)
	}

	before := srv.Stats()
	got := runOK(t, srv, bfs0)
	if hits, falls := incDelta(before, srv.Stats()); hits != 1 || falls != 0 {
		t.Fatalf("hits +%d, fallbacks +%d; want a hit from the epoch-0 prior", hits, falls)
	}
	srv.mu.Lock()
	cur := srv.graphs["mut"].sys
	srv.mu.Unlock()
	if full, err := cur.BFS(0); err != nil || !slices.Equal(got.Output.(*gts.BFSResult).Levels, full.Levels) {
		t.Fatalf("the replayed prior answers differently from a full run (err %v)", err)
	}
	srv.mu.Lock()
	prior := srv.priors[job.prior]
	srv.mu.Unlock()
	if prior == nil || prior.result != got {
		t.Fatal("the epoch-2 hit did not replace the epoch-0 prior")
	}
}

// TestPriorAfterSnapshotFallsBack: a job admitted at epoch e whose request's
// prior ran at e+1 cannot replay that prior back to its snapshot. It falls
// back, answers from its own epoch, and, finishing last, does not displace
// the newer prior.
func TestPriorAfterSnapshotFallsBack(t *testing.T) {
	srv := priorServer(t, Config{})
	srv.mu.Lock()
	old := srv.graphs["mut"]
	srv.mu.Unlock()
	want, err := old.sys.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ingest("mut", []gts.EdgeOp{{Src: 5, Dst: 9}}); err != nil {
		t.Fatal(err)
	}
	newer := runOK(t, srv, bfs0) // the prior, at epoch 1

	// The job as Submit would have admitted it at epoch 0, planned only now.
	algo, _ := gts.LookupAlgorithm("bfs")
	req := bfs0
	req.Params, _ = algo.Normalize(req.Params)
	job := &Job{id: "job-epoch0", req: req, key: cacheKey(old.name, old.gen, old.epoch, req.Algo, req.Params),
		entry: old, epoch: old.epoch, prior: priorKey{old.gen, req.Algo, req.Params}, algo: algo,
		ctx: context.Background(), cancel: func() {}, submitted: time.Now(), done: make(chan struct{})}
	before := srv.Stats()
	srv.execute(job)
	if hits, falls := incDelta(before, srv.Stats()); hits != 0 || falls != 1 {
		t.Fatalf("hits +%d, fallbacks +%d; want one counted fallback", hits, falls)
	}
	res, err := job.Result()
	if err != nil || !slices.Equal(res.Output.(*gts.BFSResult).Levels, want.Levels) {
		t.Fatalf("the epoch-0 job did not answer from epoch 0 (err %v)", err)
	}
	srv.mu.Lock()
	prior := srv.priors[job.prior]
	srv.mu.Unlock()
	if prior == nil || prior.epoch != 1 || prior.result != newer {
		t.Fatal("the epoch-0 run displaced the epoch-1 prior")
	}
}
