package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	gts "repro"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// TestIngestRepublishStartsCold: a System's device keeps its page cache from
// run to run, but the System an ingest publishes starts cold, so no page of
// a superseded epoch can hit (carrying the device across epochs is future
// work). The old System's second run finds its first run's pages.
func TestIngestRepublishStartsCold(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if err := srv.LoadMutableGraph("mut", "RMAT26@15", filepath.Join(t.TempDir(), "mut.wal"), gts.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	published := func() *gts.System {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.graphs["mut"].sys
	}
	resident := func(sys *gts.System) int64 {
		outs, _, err := sys.RunShared([]gts.SharedJob{{Kernel: kernels.NewBFS(sys.Graph()), Source: 0}}, nil)
		if err != nil || outs[0].Err != nil {
			t.Fatal(err, outs[0].Err)
		}
		return outs[0].ResidentAtStart
	}
	old := published()
	if n := resident(old); n != 0 {
		t.Fatalf("a fresh System's first run found %d resident pages", n)
	}
	if n := resident(old); n == 0 {
		t.Fatal("the second run found the device cold")
	}
	if _, err := srv.Ingest("mut", []gts.EdgeOp{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	next := published()
	if next == old {
		t.Fatal("the ingest published no new System")
	}
	if n := resident(next); n != 0 {
		t.Fatalf("the republished System's first run found %d resident pages, want 0", n)
	}
}

// TestJobAdmittedBeforeNewVersionIsAnswered: while the graph's System is
// held, job A holds the graph's run token and job B waits for it while the
// graph moves to a new version — by an ingest, or by a reload of the same
// name. Both must answer without an error, each from the version it was
// admitted at. (While every version had a queue of its own, the replaced one
// was closed under B, which failed.)
func TestJobAdmittedBeforeNewVersionIsAnswered(t *testing.T) {
	const spec = "RMAT26@15"
	for _, change := range []string{"ingest", "reload"} {
		t.Run(change, func(t *testing.T) {
			srv := New(Config{})
			defer srv.Close()
			dir := t.TempDir()
			if err := srv.LoadMutableGraph("mut", spec, filepath.Join(dir, "mut.wal"), gts.Config{}, 0); err != nil {
				t.Fatal(err)
			}
			srv.mu.Lock()
			sys := srv.graphs["mut"].sys
			srv.mu.Unlock()

			// The answers at the admitted version, and the edge the new version
			// adds: from A's source to a vertex more than one hop from it.
			reqs := []Request{
				{Graph: "mut", Algo: "bfs", Params: Params{Source: 0}},
				{Graph: "mut", Algo: "bfs", Params: Params{Source: 1}},
			}
			want := make([][]int16, len(reqs))
			for i, r := range reqs {
				res, err := sys.BFS(r.Params.Source)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res.Levels
			}
			op := gts.EdgeOp{Src: 0}
			for v, lv := range want[0] {
				if lv != 0 && lv != 1 {
					op.Dst = uint64(v)
					break
				}
			}

			release := sync.OnceFunc(HoldSystem(sys))
			defer release()

			a, err := srv.Submit(reqs[0])
			if err != nil {
				t.Fatal(err)
			}
			waitUntil(t, func() bool { return a.State() == JobRunning }, "job A to start")
			b, err := srv.Submit(reqs[1])
			if err != nil {
				t.Fatal(err)
			}
			if st := srv.Stats(); b.State() != JobQueued || st.QueueDepth != 1 || st.InFlight != 1 {
				t.Fatalf("job B %v, %d queued and %d in flight: want A running and B queued behind it", b.State(), st.QueueDepth, st.InFlight)
			}

			switch change {
			case "ingest":
				if _, err := srv.Ingest("mut", []gts.EdgeOp{op}); err != nil {
					t.Fatal(err)
				}
			case "reload":
				wal := filepath.Join(dir, "reload.wal")
				mg, err := gts.OpenMutable(spec, wal, gts.MutableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := mg.Ingest([]gts.EdgeOp{op}); err != nil {
					t.Fatal(err)
				}
				if err := mg.Close(); err != nil {
					t.Fatal(err)
				}
				if err := srv.LoadMutableGraph("mut", spec, wal, gts.Config{}, 0); err != nil {
					t.Fatal(err)
				}
			}
			release()

			for i, job := range []*Job{a, b} {
				<-job.Done()
				res, err := job.Result()
				if err != nil {
					t.Fatalf("job %c, admitted before the %s: %v", 'A'+i, change, err)
				}
				if !slices.Equal(res.Output.(*gts.BFSResult).Levels, want[i]) {
					t.Errorf("job %c did not answer from the version it was admitted at", 'A'+i)
				}
			}
			// The new version is the one later queries see.
			job, err := srv.Run(context.Background(), reqs[0])
			if err != nil {
				t.Fatal(err)
			}
			res, _ := job.Result()
			if lv := res.Output.(*gts.BFSResult).Levels[op.Dst]; lv != 1 {
				t.Errorf("after the %s, BFS from 0 puts %d at level %d, want 1", change, op.Dst, lv)
			}
		})
	}
}

// TestSharingCountersNeverDecrease: the run-traffic series /metrics declares
// as counters only grow, across an ingest and across a reload of the graph.
func TestSharingCountersNeverDecrease(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	dir := t.TempDir()
	load := func(wal string) {
		t.Helper()
		if err := srv.LoadMutableGraph("mut", "RMAT26@15", filepath.Join(dir, wal), gts.Config{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	series := []string{"gtsd_waves_total", "gtsd_page_copies_total", "gtsd_shared_bytes_to_gpu_total"}
	scrape := func() map[string]float64 {
		got := make(map[string]float64)
		for _, line := range strings.Split(string(serveOK(t, srv.Handler(), "GET", "/metrics", "")), "\n") {
			var name string
			var v float64
			if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil && slices.Contains(series, name) {
				got[name] = v
			}
		}
		return got
	}
	var last map[string]float64
	check := func(after string) {
		t.Helper()
		got := scrape()
		for _, name := range series {
			if got[name] < last[name] {
				t.Errorf("%s fell from %v to %v across the %s", name, last[name], got[name], after)
			}
		}
		last = got
	}
	query := func(source int) {
		t.Helper()
		serveOK(t, srv.Handler(), "POST", "/v1/graphs/mut/bfs", fmt.Sprintf(`{"source":%d}`, source))
		// A run's own counters land as it returns, just after its job
		// answered.
		waitUntil(t, func() bool { return scrape()["gtsd_waves_total"] > last["gtsd_waves_total"] }, "the run's counters")
		check("query")
	}

	load("mut.wal")
	last = scrape()
	query(0)
	serveOK(t, srv.Handler(), "POST", "/v1/graphs/mut/ingest", `{"edges":[{"src":1,"dst":2}]}`)
	check("ingest")
	query(1)
	load("reload.wal")
	check("reload")
	query(2)
}

// TestGraphRunsOneJobAtATime: a graph runs one job at a time, whatever
// System the job runs on. With the graph's System held, one job takes the
// graph's run token and the rest queue behind it, and so does a job admitted
// after an ingest republished the graph on a System nothing holds. Released,
// they all answer.
func TestGraphRunsOneJobAtATime(t *testing.T) {
	srv := NewUncached(Config{})
	defer srv.Close()
	if err := srv.LoadMutableGraph("mut", "RMAT26@15", filepath.Join(t.TempDir(), "mut.wal"), gts.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	sys := srv.graphs["mut"].sys
	srv.mu.Unlock()
	release := sync.OnceFunc(HoldSystem(sys))
	defer release()

	var jobs []*Job
	submit := func(source uint64) {
		t.Helper()
		job, err := srv.Submit(Request{Graph: "mut", Algo: "bfs", Params: Params{Source: source}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for i := range 3 {
		submit(uint64(i * 100))
	}
	waitUntil(t, func() bool { return srv.Stats().InFlight == 1 }, "a job on the first System to start")
	if _, err := srv.Ingest("mut", []gts.EdgeOp{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		submit(uint64(700 + i*100)) // on the new System
	}
	oneRuns := func() bool {
		st := srv.Stats()
		return st.InFlight == 1 && st.QueueDepth == len(jobs)-1
	}
	waitUntil(t, oneRuns, "one job to run and the rest to queue")
	time.Sleep(20 * time.Millisecond) // time for a job that skipped the queue to start
	if st := srv.Stats(); !oneRuns() {
		t.Fatalf("%d jobs running and %d queued, want 1 and %d", st.InFlight, st.QueueDepth, len(jobs)-1)
	}
	release()

	for i, job := range jobs {
		<-job.Done()
		if err := job.Err(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

// TestBurstRunsOneAtATimeOnWarmDevice: a burst of BFS jobs admitted while the
// graph's System is held runs one job at a time once it is released, and
// every job but the first to run finds the device page cache the jobs before
// it left warm.
func TestBurstRunsOneAtATimeOnWarmDevice(t *testing.T) {
	g, err := gts.Open("RMAT26@15")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewUncached(Config{})
	defer srv.Close()
	if err := srv.AddGraph("g", sys); err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(HoldSystem(sys))
	defer release()

	jobs := make([]*Job, 6)
	for i := range jobs {
		if jobs[i], err = srv.Submit(Request{Graph: "g", Algo: "bfs", Params: Params{Source: uint64(i * 100)}}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, func() bool {
		st := srv.Stats()
		return st.InFlight == 1 && st.QueueDepth == len(jobs)-1
	}, "one job of the burst to run and the rest to queue")
	release()

	cold := 0
	for i, job := range jobs {
		<-job.Done()
		res, err := job.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		// The same job alone on a System of its own, whose device is cold.
		fresh, err := gts.NewSystem(g, gts.Config{})
		if err != nil {
			t.Fatal(err)
		}
		alone, err := fresh.BFS(job.Request().Params.Source)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.BytesToGPU >= alone.BytesToGPU {
			cold++
		}
	}
	if cold != 1 {
		t.Errorf("%d jobs of the burst copied as much to the GPUs as on a cold device, want only the first to run", cold)
	}
}

// TestQueuedJobPastDeadlineNeverRuns: a job whose deadline passes while it
// waits for its graph's run token answers ErrTimeout and never runs — the
// run tally and the run-wall histogram count only the jobs that held the
// token — and the graph goes on serving.
func TestQueuedJobPastDeadlineNeverRuns(t *testing.T) {
	g, err := gts.Open("RMAT26@15")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	defer srv.Close()
	if err := srv.AddGraph("g", sys); err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(HoldSystem(sys))
	defer release()

	a, err := srv.Submit(Request{Graph: "g", Algo: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return a.State() == JobRunning }, "job A to start")
	b, err := srv.Submit(Request{Graph: "g", Algo: "bfs", Params: Params{Source: 1}, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return b.State() != JobQueued }, "job B's deadline")
	if b.State() != JobTimedOut || !errors.Is(b.Err(), ErrTimeout) {
		t.Fatalf("job B: %v, %v; want timed out", b.State(), b.Err())
	}
	release()
	<-a.Done()
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(context.Background(), Request{Graph: "g", Algo: "bfs", Params: Params{Source: 2}}); err != nil {
		t.Fatal(err)
	}
	srv.Close() // every run has returned
	if st := srv.Stats(); st.Sharing.WaveGroups != 2 || st.RunWall.Count != 2 || st.TimedOut != 1 {
		t.Errorf("%d runs, %d run walls, %d timed out; want 2, 2 and 1", st.Sharing.WaveGroups, st.RunWall.Count, st.TimedOut)
	}
}

// TestPerJobTrace: jobs that queue behind each other each get a trace of
// their own, carrying the job's ID, its one run and that run's waves.
func TestPerJobTrace(t *testing.T) {
	g, err := gts.Open("RMAT26@15")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Trace: true})
	defer srv.Close()
	if err := srv.AddGraph("g", sys); err != nil {
		t.Fatal(err)
	}
	release := HoldSystem(sys)
	jobs := make([]*Job, 3)
	for i := range jobs {
		if jobs[i], err = srv.Submit(Request{Graph: "g", Algo: "bfs", Params: Params{Source: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	release()
	for _, job := range jobs {
		<-job.Done()
		if err := job.Err(); err != nil {
			t.Fatal(err)
		}
		raw, err := srv.JobTrace(job.ID())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := trace.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		runs, waves := 0, 0
		for _, sp := range rec.Spans() {
			switch sp.Kind {
			case trace.Run:
				runs++
			case trace.Wave:
				waves++
			}
		}
		if rec.ID() != job.ID() || runs != 1 || waves == 0 {
			t.Errorf("%s: trace %q has %d run spans and %d wave spans, want its own, 1 and some", job.ID(), rec.ID(), runs, waves)
		}
	}
}

func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
