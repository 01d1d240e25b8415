package sched_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	gts "repro"
	"repro/internal/core"
	"repro/internal/graphgen"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

func testGraph(t *testing.T) *gts.Graph {
	t.Helper()
	g, err := gts.Generate("RMAT27", 27-11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newSched(t *testing.T, g *gts.Graph, cfg gts.Config, scfg sched.Config) (*sched.Scheduler, *gts.System) {
	t.Helper()
	sys, err := gts.NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(scfg)
	t.Cleanup(s.Close)
	return s, sys
}

// TestSchedulerGroupsConcurrentJobs: N concurrent submissions coalesce into
// wave groups and every result matches the sequential reference (a direct
// gts.System call would be no oracle: it runs the same engine, as a group
// of one).
func TestSchedulerGroupsConcurrentJobs(t *testing.T) {
	g := testGraph(t)
	s, sys := newSched(t, g, gts.Config{}, sched.Config{Hold: 20 * time.Millisecond})

	const n = 16
	results := make([]*core.Report, n)
	errs := make([]error, n)
	kerns := make([]*kernels.BFS, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		kerns[i] = kernels.NewBFS(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Run(context.Background(), sys, sched.Job{
				Kernel: kerns[i],
				Source: uint64(i * 128),
			}, nil)
		}()
	}
	wg.Wait()

	d, _ := graphgen.ByName("RMAT27")
	raw := d.MustGenerate(27 - 11) // testGraph's edge list
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(kerns[i].Levels(results[i].State), verify.BFS(raw, uint32(i*128))) {
			t.Errorf("job %d differs from the reference traversal", i)
		}
	}
	// A waiter wakes when its job leaves the group; the group's own counters
	// are in once it has ended, which Close waits for.
	s.Close()
	st := s.Stats()
	if st.WaveGroups == 0 || st.GroupJobs != n || st.SoloFallbacks != 0 {
		t.Errorf("stats = %+v, want grouped work", st)
	}
	if st.GroupJobs > 1 && st.SharedPageCopies == 0 {
		t.Errorf("grouped %d jobs but shared no pages: %+v", st.GroupJobs, st)
	}
	if st.BytesToGPU <= 0 {
		t.Errorf("BytesToGPU = %d", st.BytesToGPU)
	}
}

// TestSchedulerMaxGroupSplits: more concurrent jobs than MaxGroup all
// complete, at most MaxGroup of them riding a group at a time (the rest wait
// in the queue for a member to leave).
func TestSchedulerMaxGroupSplits(t *testing.T) {
	g := testGraph(t)
	s, sys := newSched(t, g, gts.Config{}, sched.Config{MaxGroup: 3, Hold: 20 * time.Millisecond})

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run(context.Background(), sys, sched.Job{Kernel: kernels.NewBFS(g), Source: uint64(i)}, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.GroupJobs != n {
		t.Errorf("GroupJobs = %d, want %d", st.GroupJobs, n)
	}
}

// TestSchedulerPerJobTrace: a job's recorder receives its wave spans.
func TestSchedulerPerJobTrace(t *testing.T) {
	g := testGraph(t)
	s, sys := newSched(t, g, gts.Config{}, sched.Config{})

	rec := trace.NewWithID("job-1")
	if _, err := s.Run(context.Background(), sys, sched.Job{Kernel: kernels.NewBFS(g), Source: 0, Trace: rec}, nil); err != nil {
		t.Fatal(err)
	}
	waves := 0
	for _, sp := range rec.Spans() {
		if sp.Kind == trace.Wave {
			waves++
		}
	}
	if waves == 0 {
		t.Error("job recorder has no wave spans")
	}
}

// TestSchedulerContextCancel: an expired context abandons the wait without
// sinking the scheduler, and a job abandoned while still queued never runs.
func TestSchedulerContextCancel(t *testing.T) {
	g := testGraph(t)
	s, sys := newSched(t, g, gts.Config{}, sched.Config{Hold: 50 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, sys, sched.Job{Kernel: kernels.NewBFS(g), Source: 0}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The scheduler still serves later jobs.
	if _, err := s.Run(context.Background(), sys, sched.Job{Kernel: kernels.NewBFS(g), Source: 0}, nil); err != nil {
		t.Fatal(err)
	}
	// Close drains the queue, so whatever was going to run has run.
	s.Close()
	if st := s.Stats(); st.GroupJobs != 1 {
		t.Errorf("GroupJobs = %d, want 1: a whole run was streamed for the cancelled waiter", st.GroupJobs)
	}
}

// TestSchedulerCloseDrains: Close completes queued jobs, then further
// submissions fail with ErrClosed.
func TestSchedulerCloseDrains(t *testing.T) {
	g := testGraph(t)
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Config{Hold: 20 * time.Millisecond})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run(context.Background(), sys, sched.Job{Kernel: kernels.NewBFS(g), Source: uint64(i)}, nil)
		}()
	}
	time.Sleep(5 * time.Millisecond) // let submissions queue
	s.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("queued job %d: %v", i, err)
		}
	}
	if _, err := s.Run(context.Background(), sys, sched.Job{Kernel: kernels.NewBFS(g), Source: 0}, nil); !errors.Is(err, sched.ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
}

// TestSchedulerNoKernel: malformed jobs are rejected up front.
func TestSchedulerNoKernel(t *testing.T) {
	g := testGraph(t)
	s, sys := newSched(t, g, gts.Config{}, sched.Config{})
	if _, err := s.Run(context.Background(), sys, sched.Job{}, nil); err == nil {
		t.Fatal("nil kernel accepted")
	}
}
