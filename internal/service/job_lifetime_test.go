package service

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	gts "repro"
)

// TestFinishedJobReleasesItsEpoch ingests a run of batches with a query per
// epoch and requires epoch 0's snapshot to be collected while its job is
// still in the history and still answers GET /v1/jobs/{id} with the same
// bytes. Before Job.complete dropped the entry, every finished job pinned
// its graphEntry, System and snapshot for as long as the 1 024-entry
// history remembered it. On an incremental graph the bfs jobs are their
// request's priors too, and hold no more of their epoch.
func TestFinishedJobReleasesItsEpoch(t *testing.T) {
	for name, cfg := range map[string]Config{"plain": {}, "incremental": {Incremental: true}} {
		t.Run(name, func(t *testing.T) { finishedJobReleasesItsEpoch(t, cfg) })
	}
}

func finishedJobReleasesItsEpoch(t *testing.T, cfg Config) {
	srv := New(cfg)
	defer srv.Close()
	if err := srv.LoadMutableGraph("mut", "RMAT26@15", filepath.Join(t.TempDir(), "mut.wal"), gts.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	fetch := func(method, url, body string) string {
		t.Helper()
		return string(serveOK(t, srv.Handler(), method, url, body))
	}

	collected := make(chan struct{})
	func() { // epoch 0's graph must not stay reachable from this frame
		srv.mu.Lock()
		g := srv.graphs["mut"].sys.Graph()
		srv.mu.Unlock()
		runtime.SetFinalizer(g, func(*gts.Graph) { close(collected) })
	}()
	fetch("POST", "/v1/graphs/mut/bfs", `{"source":0}`)
	before := fetch("GET", "/v1/jobs/job-000001", "")

	for epoch := 1; epoch <= 4; epoch++ {
		fetch("POST", "/v1/graphs/mut/ingest", fmt.Sprintf(`{"edges":[{"src":%d,"dst":%d}]}`, epoch, 100+epoch))
		fetch("POST", "/v1/graphs/mut/bfs", `{"source":0}`)
	}

	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("epoch 0's snapshot is still reachable after 4 later epochs: a finished job (or something else) pins it")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if after := fetch("GET", "/v1/jobs/job-000001", ""); after != before {
		t.Errorf("job-000001's document changed once its epoch was collected\n got %s\nwant %s", after, before)
	}
}
