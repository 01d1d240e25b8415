package sched

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

func newSched(t *testing.T, g *gts.Graph, cfg gts.Config) (*Scheduler, *gts.System) {
	t.Helper()
	sys, err := gts.NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	t.Cleanup(s.Close)
	return s, sys
}

// holdSystem keeps sys from running anything until the returned release is
// called: it holds the System's run lock in a wave group of no members whose
// first admit poll waits for release. A group the scheduler launches on sys
// meanwhile takes its jobs and waits, and later jobs queue behind it.
func holdSystem(sys *gts.System) (release func()) {
	held, free := make(chan struct{}), make(chan struct{})
	go sys.RunGroup(nil, func() []Job {
		close(held)
		<-free
		return nil
	})
	<-held
	return func() { close(free) }
}

// waitLocked polls cond under s.mu until it holds.
func waitLocked(s *Scheduler, cond func() bool) {
	for {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSchedulerGroupsConcurrentJobs: N jobs queued while the System is busy
// ride one wave group that shares page copies, and every result matches the
// sequential reference (a direct gts.System call would be no oracle: it runs
// the same engine, as a group of one).
func TestSchedulerGroupsConcurrentJobs(t *testing.T) {
	g := testGraph(t)
	s, sys := newSched(t, g, gts.Config{})
	release := holdSystem(sys)

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
			results[i], errs[i] = s.Run(context.Background(), sys, Job{
				Kernel: kerns[i],
				Source: uint64(i * 128),
			}, nil)
		}()
	}
	waitLocked(s, func() bool { return s.live+len(s.queue) == n })
	release()
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
	if st.WaveGroups != 1 || st.GroupJobs != n || st.SoloFallbacks != 0 {
		t.Errorf("stats = %+v, want one wave group of %d jobs", st, n)
	}
	if st.SharedPageCopies == 0 {
		t.Errorf("grouped %d jobs but shared no pages: %+v", st.GroupJobs, st)
	}
	if st.BytesToGPU <= 0 {
		t.Errorf("BytesToGPU = %d", st.BytesToGPU)
	}
}

// TestSchedulerMaxGroupSplits: of more queued jobs than maxGroup, a new
// group takes exactly maxGroup and the rest wait in the queue for a member to
// leave; all of them complete, in that one group.
func TestSchedulerMaxGroupSplits(t *testing.T) {
	g := testGraph(t)
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Driven by hand, as in TestDeclinedMemberRunsAlone: every job is queued
	// before the group takes any.
	s := &Scheduler{}
	s.cond = sync.NewCond(&s.mu)

	const n = 2 * maxGroup
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run(context.Background(), sys, Job{Kernel: kernels.NewBFS(g), Source: uint64(i)}, nil)
		}()
	}
	waitLocked(s, func() bool { return len(s.queue) == n })

	release := holdSystem(sys)
	ran := make(chan struct{})
	go func() {
		s.runGroup()
		close(ran)
	}()
	// The group has taken its first batch and waits for the System.
	waitLocked(s, func() bool { return s.live > 0 })
	s.mu.Lock()
	live, queued := s.live, len(s.queue)
	s.mu.Unlock()
	if live != maxGroup || queued != n-maxGroup {
		t.Errorf("a new group took %d jobs and left %d queued, want %d and %d", live, queued, maxGroup, n-maxGroup)
	}
	release()
	<-ran
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.WaveGroups != 1 || st.GroupJobs != n {
		t.Errorf("stats = %+v, want one wave group of %d jobs", st, n)
	}
}

// TestSchedulerPerJobTrace: a job's recorder receives its wave spans.
func TestSchedulerPerJobTrace(t *testing.T) {
	g := testGraph(t)
	s, sys := newSched(t, g, gts.Config{})

	rec := trace.NewWithID("job-1")
	if _, err := s.Run(context.Background(), sys, Job{Kernel: kernels.NewBFS(g), Source: 0, Trace: rec}, nil); err != nil {
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
	s, sys := newSched(t, g, gts.Config{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, sys, Job{Kernel: kernels.NewBFS(g), Source: 0}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The scheduler still serves later jobs.
	if _, err := s.Run(context.Background(), sys, Job{Kernel: kernels.NewBFS(g), Source: 0}, nil); err != nil {
		t.Fatal(err)
	}
	// Close drains the queue, so whatever was going to run has run.
	s.Close()
	if st := s.Stats(); st.GroupJobs != 1 {
		t.Errorf("GroupJobs = %d, want 1: a whole run was streamed for the cancelled waiter", st.GroupJobs)
	}
}

// TestSchedulerCloseDrains: Close completes the jobs queued when it is
// called, then further submissions fail with ErrClosed.
func TestSchedulerCloseDrains(t *testing.T) {
	g := testGraph(t)
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	release := holdSystem(sys)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run(context.Background(), sys, Job{Kernel: kernels.NewBFS(g), Source: uint64(i)}, nil)
		}()
	}
	waitLocked(s, func() bool { return s.live+len(s.queue) == len(errs) })
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitLocked(s, func() bool { return s.closed })
	release()
	<-closed
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("queued job %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.GroupJobs != int64(len(errs)) {
		t.Errorf("GroupJobs = %d after Close, want %d", st.GroupJobs, len(errs))
	}
	if _, err := s.Run(context.Background(), sys, Job{Kernel: kernels.NewBFS(g), Source: 0}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v, want ErrClosed", err)
	}
}

// TestSchedulerNoKernel: malformed jobs are rejected up front.
func TestSchedulerNoKernel(t *testing.T) {
	g := testGraph(t)
	s, sys := newSched(t, g, gts.Config{})
	if _, err := s.Run(context.Background(), sys, Job{}, nil); err == nil {
		t.Fatal("nil kernel accepted")
	}
}

// TestIdleSchedulerHolds: a job submitted to an idle scheduler is taken only
// after the hold, the window in which jobs submitted with it queue up and
// start in the same group.
func TestIdleSchedulerHolds(t *testing.T) {
	g := testGraph(t)
	s, sys := newSched(t, g, gts.Config{})

	for i := range 5 {
		// The last group has ended: a job now finds no group to join.
		waitLocked(s, func() bool { return s.stats.WaveGroups == int64(i) })
		var taken time.Time
		start := time.Now()
		if _, err := s.Run(context.Background(), sys, Job{Kernel: kernels.NewBFS(g), Source: uint64(i)}, func() { taken = time.Now() }); err != nil {
			t.Fatal(err)
		}
		if wait := taken.Sub(start); wait < hold {
			t.Errorf("job %d taken %v after its submission, before the %v hold ran out", i, wait, hold)
		}
	}
}
