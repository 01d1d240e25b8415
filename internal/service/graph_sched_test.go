package service

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	gts "repro"
)

// TestJobAdmittedBeforeNewVersionIsAnswered: while the graph's System is
// held, job A waits in the wave group the graph's scheduler took it into and
// job B in the scheduler's queue while the graph moves to a new version — by
// an ingest, or by a reload of the same name. Both must answer without an
// error, each from the version it was admitted at. (While every version had
// a scheduler of its own, the replaced one was closed under B, which failed
// with "sched: scheduler closed".)
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

			// Hold the System in a wave group of no members whose first admit
			// poll waits for release.
			held, free := make(chan struct{}), make(chan struct{})
			go sys.RunGroup(nil, func() []gts.SharedJob {
				close(held)
				<-free
				return nil
			})
			<-held
			release := sync.OnceFunc(func() { close(free) })
			defer release()

			a, err := srv.Submit(reqs[0])
			if err != nil {
				t.Fatal(err)
			}
			waitUntil(t, func() bool { return a.State() == JobRunning }, "a wave group to take job A")
			b, err := srv.Submit(reqs[1])
			if err != nil {
				t.Fatal(err)
			}
			if st := srv.Stats(); b.State() != JobQueued || st.QueueDepth != 1 || st.InFlight != 1 {
				t.Fatalf("job B %v, %d queued and %d in flight: want A in the held group and B queued behind it", b.State(), st.QueueDepth, st.InFlight)
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

// TestSharingCountersNeverDecrease: the wave-group series /metrics declares
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
	series := []string{"gtsd_wave_groups_total", "gtsd_wave_group_jobs_total", "gtsd_waves_total", "gtsd_page_copies_total"}
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
		// A group's own counters land as it ends, just after its last job
		// answered.
		waitUntil(t, func() bool { return scrape()["gtsd_wave_groups_total"] > last["gtsd_wave_groups_total"] }, "the group's counters")
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

func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
