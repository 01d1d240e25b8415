package sched

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	gts "repro"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// gatedBFS is a plain BFS that, at the start of its gate-th superstep, waits
// for open to close — and with it the whole wave group it rides in.
type gatedBFS struct {
	*kernels.BFS
	gate int32
	open chan struct{}
}

func (k *gatedBFS) BeginLevel(_ []kernels.State, level int32) {
	if level == k.gate {
		<-k.open
	}
}

// TestShortMemberAnswersBeforeLongOne: on the path 0 -> 1 -> ... -> 12, a BFS
// from 11 (2 levels) and one from 0 (13 levels) ride one wave group. The long
// member holds the group at its level 10 until the short member's Run has
// returned, which it can only do if a waiter is released when its job leaves
// the group rather than when the group ends. The group's own counters land
// when it ends.
func TestShortMemberAnswersBeforeLongOne(t *testing.T) {
	const n = 13
	var edges []csr.Edge
	for v := uint32(0); v+1 < n; v++ {
		edges = append(edges, csr.Edge{Src: v, Dst: v + 1})
	}
	src, err := csr.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gts.BuildGraph(src, gts.ScaledPageConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Driven by hand, as in TestDeclinedMemberRunsAlone: both jobs queue
	// before the one group forms.
	s := &Scheduler{cfg: Config{}.withDefaults()}
	s.cond = sync.NewCond(&s.mu)

	type answer struct {
		rep *core.Report
		err error
	}
	long := &gatedBFS{BFS: kernels.NewBFS(g), gate: 10, open: make(chan struct{})}
	short := kernels.NewBFS(g)
	longDone, shortDone := make(chan answer, 1), make(chan answer, 1)
	for i, job := range []struct {
		job Job
		to  chan answer
	}{{Job{Kernel: long, Source: 0}, longDone}, {Job{Kernel: short, Source: 11}, shortDone}} {
		go func() {
			rep, err := s.Run(context.Background(), sys, job.job, nil)
			job.to <- answer{rep, err}
		}()
		for queued := 0; queued <= i; {
			time.Sleep(100 * time.Microsecond)
			s.mu.Lock()
			queued = len(s.queue)
			s.mu.Unlock()
		}
	}

	ran := make(chan struct{})
	go func() {
		s.runGroup()
		close(ran)
	}()
	var got answer
	select {
	case got = <-shortDone:
	case <-time.After(10 * time.Second):
	}
	mid := s.Stats()
	close(long.open)
	<-ran
	if got.rep == nil && got.err == nil {
		t.Fatal("the short member's Run did not return while the long member held the group")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if lv := short.Levels(got.rep.State); got.rep.Levels != 2 || lv[11] != 0 || lv[12] != 1 || lv[10] != -1 {
		t.Errorf("short member: %d levels, levels[10:] = %v", got.rep.Levels, lv[10:])
	}
	if mid.GroupJobs != 1 || mid.WaveGroups != 0 {
		t.Errorf("while the group held: %+v, want the short job counted and no group yet", mid)
	}
	a := <-longDone
	if a.err != nil || a.rep.Levels != n {
		t.Fatalf("long member: err %v, %d levels", a.err, a.rep.Levels)
	}
	if st := s.Stats(); st.WaveGroups != 1 || st.GroupJobs != 2 || st.Waves != n {
		t.Errorf("after the group: %+v, want 1 group of 2 jobs over %d waves", st, n)
	}
}

// TestMaxGroupCapsLiveMembers: with the System held, 2×MaxGroup jobs queue;
// released, they ride one wave group. The group starts with at most MaxGroup
// members, and each member that leaves frees its place for a queued job at
// the next wave boundary, so no wave ever carries more than MaxGroup members.
func TestMaxGroupCapsLiveMembers(t *testing.T) {
	const maxGroup = 3
	g, err := gts.Generate("RMAT27", 27-11)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxGroup: maxGroup})
	defer s.Close()

	// Hold the System in a wave group of no members whose first admit poll
	// waits for release.
	held, free := make(chan struct{}), make(chan struct{})
	go sys.RunGroup(nil, func() []Job {
		close(held)
		<-free
		return nil
	})
	<-held

	recs := make([]*trace.Recorder, 2*maxGroup)
	errs := make([]error, len(recs))
	taken := 0 // under s.mu, where the scheduler calls each job's taken
	var wg sync.WaitGroup
	for i := range recs {
		recs[i] = trace.NewWithID(fmt.Sprintf("job-%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run(context.Background(), sys, Job{Kernel: kernels.NewBFS(g), Source: uint64(i), Trace: recs[i]}, func() { taken++ })
		}()
	}
	// Every job is queued or in the batch the dispatcher took before it
	// blocked on the held System.
	for waiting := true; waiting; {
		time.Sleep(100 * time.Microsecond)
		s.mu.Lock()
		waiting = taken == 0 || taken+len(s.queue) < len(recs)
		s.mu.Unlock()
	}
	close(free)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	s.Close() // the group's counters are in once it has ended
	if st := s.Stats(); st.WaveGroups != 1 || st.GroupJobs != 2*maxGroup {
		t.Errorf("stats = %+v, want one wave group of %d jobs", st, 2*maxGroup)
	}
	members := map[int64]int{} // wave index -> members in that wave
	for _, rec := range recs {
		for _, sp := range rec.Spans() {
			if sp.Kind == trace.Wave {
				members[sp.Page]++
			}
		}
	}
	for wave, n := range members {
		if n > maxGroup {
			t.Errorf("wave %d carried %d members, MaxGroup is %d", wave, n, maxGroup)
		}
	}
	if len(members) == 0 {
		t.Error("no wave spans recorded")
	}
}
