package sched

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	gts "repro"
	"repro/internal/core"
	"repro/internal/kernels"
)

// TestDeclinedMemberRunsAlone drives the dispatcher by hand (no goroutine of
// its own, so every step is observable): four jobs queue in a known order on
// a machine whose device memory holds the wide member's WA or its
// companion's beside it, never both. The group declines the wide member; it
// must go back to the head of the queue, run next as a group of one with the
// whole machine — same state and virtual time as a solo System run — leave
// the jobs behind it in order, and be drained by a closing dispatcher.
func TestDeclinedMemberRunsAlone(t *testing.T) {
	g, err := gts.Generate("RMAT27", 27-11)
	if err != nil {
		t.Fatal(err)
	}
	// Device memory = stream buffers + 9 bytes per vertex: CC's 8 B/vertex
	// fits alone, not beside a BFS's 2 B/vertex. (Neither kernel streams RA,
	// so the buffers are two pages per stream.)
	const streams = 4
	want := int64(streams*2*g.Config().PageSize) + 9*int64(g.NumVertices())
	cfg := gts.Config{Streams: streams, ScaleFactor: (12 << 30) / want}
	sys, err := gts.NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{cfg: Config{MaxGroup: 2}.withDefaults()}
	s.cond = sync.NewCond(&s.mu)

	wide := kernels.NewCC(g)
	jobs := []Job{
		{Kernel: kernels.NewBFS(g), Source: 1},
		{Kernel: wide},
		{Kernel: kernels.NewBFS(g), Source: 2},
		{Kernel: kernels.NewBFS(g), Source: 3},
	}
	reps := make([]*core.Report, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = s.Run(context.Background(), sys, jobs[i], nil)
		}()
		for queued := 0; queued <= i; { // submit in order: wait for job i to queue
			time.Sleep(100 * time.Microsecond)
			s.mu.Lock()
			queued = len(s.queue)
			s.mu.Unlock()
		}
	}

	s.runGroup() // [BFS 1, CC]: the CC does not fit beside the BFS
	s.mu.Lock()
	var order []gts.Kernel
	for _, p := range s.queue {
		order = append(order, p.job.Kernel)
	}
	headAlone := len(s.queue) > 0 && s.queue[0].alone
	s.mu.Unlock()
	if wantOrder := []gts.Kernel{wide, jobs[2].Kernel, jobs[3].Kernel}; !reflect.DeepEqual(order, wantOrder) || !headAlone {
		t.Fatalf("after the declining group the queue is %v (head alone: %v), want the declined member first, then the others in FIFO order", order, headAlone)
	}
	if st := s.Stats(); st.SoloFallbacks != 1 || st.WaveGroups != 1 || st.GroupJobs != 1 {
		t.Fatalf("after the declining group: %+v, want 1 fallback, 1 group, 1 job", st)
	}

	// Close with no dispatcher running only marks the scheduler closed; the
	// dispatcher loop then has to drain what is queued — the declined member
	// included — and return.
	s.Close()
	s.dispatch()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.SoloFallbacks != 1 || st.WaveGroups != 3 || st.GroupJobs != 4 {
		t.Errorf("drained: %+v, want 1 fallback, 3 groups ([BFS], [CC] alone, [BFS BFS]), 4 jobs", st)
	}

	solo, err := sys.CC()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wide.Components(reps[1].State), solo.Labels) {
		t.Error("the declined member's labels differ from a solo System run")
	}
	if reps[1].Elapsed != solo.Elapsed || reps[1].BytesToGPU != solo.BytesToGPU {
		t.Errorf("declined member: %v virtual, %d bytes to GPU; solo run: %v, %d",
			reps[1].Elapsed, reps[1].BytesToGPU, solo.Elapsed, solo.BytesToGPU)
	}
}
