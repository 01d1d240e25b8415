package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	gts "repro"
)

// tableServer serves one BFS graph, "g", from a Server whose job table is
// bounded by budget bytes instead of jobTableBytes.
func tableServer(t *testing.T, cfg Config, budget int64) (*Server, *gts.System) {
	t.Helper()
	g, err := gts.Open("RMAT26@15")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cfg)
	srv.budget = budget
	if err := srv.AddGraph("g", sys); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sys
}

// serve answers one request on srv's handler with its status and body.
func serve(srv *Server, method, url, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// jobDoc is the part of a job document these tests read.
type jobDoc struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Result struct {
		Levels json.RawMessage
	} `json:"result"`
}

func parseJob(t *testing.T, body []byte) jobDoc {
	t.Helper()
	var d jobDoc
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("job document: %v\n%s", err, body)
	}
	return d
}

// wantLevels checks that a job document's Levels are the whole vector of a
// BFS from source on sys.
func wantLevels(t *testing.T, sys *gts.System, source uint64, d jobDoc) {
	t.Helper()
	var got []int16
	if err := json.Unmarshal(d.Result.Levels, &got); err != nil {
		t.Fatalf("%s: Levels: %v", d.ID, err)
	}
	want, err := sys.BFS(source)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want.Levels) {
		t.Errorf("%s: %d levels that differ from BFS(%d)'s %d", d.ID, len(got), source, len(want.Levels))
	}
}

// TestJobEntryCost measures the heap a finished job keeps beyond what
// resultBytes counts — computed jobs with a deadline, then cache hits of one
// of them — and holds both under jobEntryBytes: the table may over-count a
// job, never under-count it.
func TestJobEntryCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation perturbs heap sizes")
	}
	srv, _ := tableServer(t, Config{QueueDepth: 1 << 20}, 1<<40)
	run := func(source uint64) *Job {
		t.Helper()
		job, err := srv.Run(context.Background(), Request{Graph: "g", Algo: "bfs", Params: Params{Source: source}, Timeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // and the sync.Pool victims of the first
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for source := range uint64(16) { // warm the device, the pools and the histograms
		run(1000 + source)
	}
	const computed, hits = 200, 2000
	before := heap()
	var counted int64
	for source := range uint64(computed) {
		res, _ := run(source).Result()
		counted += resultBytes(res)
	}
	perComputed := (heap() - before - counted) / computed
	before = heap()
	for range hits {
		if !run(0).Cached() {
			t.Fatal("a repeated request was computed again")
		}
	}
	perHit := (heap() - before) / hits
	t.Logf("a finished job keeps %d bytes computed, %d as a cache hit, beyond its result; jobEntryBytes is %d", perComputed, perHit, jobEntryBytes)
	if perComputed > jobEntryBytes || perHit > jobEntryBytes {
		t.Errorf("finished jobs keep %d (computed) and %d (cache hit) bytes each beyond their results, over jobEntryBytes = %d", perComputed, perHit, jobEntryBytes)
	}
}

// TestJobTableBound runs more distinct traced jobs than the table's budget
// holds. Once more than QueueDepth of them have finished the table's charge
// stays within the budget; the oldest job is then forgotten whole — its
// document and its trace answer 404 — and the same request again is
// computed anew, with the same levels.
func TestJobTableBound(t *testing.T) {
	const depth = 2
	srv, sys := tableServer(t, Config{QueueDepth: depth, Trace: true}, 1<<40)
	_, first := serve(srv, "POST", "/v1/graphs/g/bfs", `{"source":0}`)
	oldest := parseJob(t, first)
	srv.mu.Lock()
	srv.budget = 3 * srv.charge // about three traced BFS jobs
	srv.mu.Unlock()

	for source := 1; source < 8; source++ {
		if code, body := serve(srv, "POST", "/v1/graphs/g/bfs", fmt.Sprintf(`{"source":%d}`, source)); code != http.StatusOK {
			t.Fatalf("bfs %d: status %d: %s", source, code, body)
		}
		if st := srv.Stats(); source+1 > depth && st.JobTableBytes > srv.budget {
			t.Errorf("after %d jobs the table charges %d bytes, over its budget of %d", source+1, st.JobTableBytes, srv.budget)
		}
	}
	for _, path := range []string{"/v1/jobs/", "/debug/trace/"} {
		if code, body := serve(srv, "GET", path+oldest.ID, ""); code != http.StatusNotFound {
			t.Errorf("GET %s%s of an evicted job: status %d, want 404: %s", path, oldest.ID, code, body)
		}
	}
	if _, err := srv.Lookup(oldest.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Lookup of an evicted job: %v, want ErrUnknownJob", err)
	}

	code, body := serve(srv, "POST", "/v1/graphs/g/bfs", `{"source":0}`)
	again := parseJob(t, body)
	if code != http.StatusOK || again.Cached {
		t.Fatalf("the evicted job's request again: status %d, cached %v; want 200 computed", code, again.Cached)
	}
	if string(again.Result.Levels) != string(oldest.Result.Levels) {
		t.Error("the recomputed levels differ from the evicted job's")
	}
	wantLevels(t, sys, 0, again)
}

// TestBurstPollsOutliveTheBudget is the serving benchmark's burst in small:
// QueueDepth async BFS jobs, admitted while the graph's System is held, whose
// outputs together exceed the table's budget many times over. Released, every
// poll answers 200, done, with its whole Levels vector: the QueueDepth most
// recently used finished jobs are never evicted.
func TestBurstPollsOutliveTheBudget(t *testing.T) {
	const depth = 8
	srv, sys := tableServer(t, Config{QueueDepth: depth}, 1)
	release := sync.OnceFunc(HoldSystem(sys))
	defer release()

	var ids []string
	for source := range depth {
		code, body := serve(srv, "POST", "/v1/graphs/g/bfs?mode=async", fmt.Sprintf(`{"source":%d}`, source))
		if code != http.StatusAccepted {
			t.Fatalf("async bfs %d: status %d: %s", source, code, body)
		}
		ids = append(ids, parseJob(t, body).ID)
	}
	release()
	for _, id := range ids {
		job, err := srv.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
	}
	if st := srv.Stats(); st.JobTableBytes <= srv.budget {
		t.Fatalf("the burst's outputs are charged %d bytes, within the budget of %d: nothing to evict", st.JobTableBytes, srv.budget)
	}
	for source, id := range ids {
		code, body := serve(srv, "GET", "/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, code, body)
		}
		d := parseJob(t, body)
		if d.State != "done" {
			t.Errorf("poll %s: state %q, want done", id, d.State)
		}
		wantLevels(t, sys, uint64(source), d)
	}
}

// TestSyncAnswerOutlivesItsEviction: a sync request's job can be evicted by
// later completions between its answer and its response — here, before
// writeJob, as in handleRun. Eviction changes nothing on the Job, so the
// response still carries the whole vector.
func TestSyncAnswerOutlivesItsEviction(t *testing.T) {
	srv, sys := tableServer(t, Config{QueueDepth: 1}, 1)
	job, err := srv.Run(context.Background(), Request{Graph: "g", Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(context.Background(), Request{Graph: "g", Algo: "bfs", Params: Params{Source: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Lookup(job.ID()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Lookup after a later completion: %v, want ErrUnknownJob", err)
	}
	rec := httptest.NewRecorder()
	writeJob(rec, job)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	wantLevels(t, sys, 0, parseJob(t, rec.Body.Bytes()))
}

// TestHitKeepsItsAnswer: a cached answer used by a hit moves to the front of
// the recency list, so the next eviction takes the least recently used entry
// instead — here B, computed after A, rather than A, whose key was hit.
func TestHitKeepsItsAnswer(t *testing.T) {
	srv, _ := tableServer(t, Config{QueueDepth: 1}, 1<<40)
	run := func(source uint64) *Job {
		t.Helper()
		job, err := srv.Run(context.Background(), Request{Graph: "g", Algo: "bfs", Params: Params{Source: source}})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	run(0) // A
	srv.mu.Lock()
	srv.budget = 3 * srv.charge // three finished BFS jobs
	srv.mu.Unlock()
	b := run(1)
	if !run(0).Cached() {
		t.Fatal("A's request again was computed")
	}
	run(2) // the fourth finished job: one goes
	if _, err := srv.Lookup(b.ID()); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("B, the least recently used, is still in the table (%v)", err)
	}
	if !run(0).Cached() {
		t.Error("A, hit after B finished, was evicted before B")
	}
	if run(1).Cached() {
		t.Error("B's request again was answered by key after B's eviction")
	}
}
