package sched

import (
	"context"
	"sync"
	"testing"

	gts "repro"
	"repro/internal/kernels"
)

// TestSchedulerNeverMixesSystems: jobs built against two Systems over one
// graph — two epochs of a graph, say — never share a wave group, so a group
// formed on one snapshot is never joined by a job expecting the other.
func TestSchedulerNeverMixesSystems(t *testing.T) {
	g := testGraph(t)
	s, first := newSched(t, g, gts.Config{})
	second, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Every job is queued before any group runs: the first System's jobs
	// ahead of the second's, which a group on the first must not admit.
	release := holdSystem(first)

	const perSys = 4
	var wg sync.WaitGroup
	errs := make([]error, 2*perSys)
	submit := func(base int, sys *gts.System) {
		for i := 0; i < perSys; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = s.Run(context.Background(), sys, Job{Kernel: kernels.NewBFS(g), Source: uint64(i % 8)}, nil)
			}(base + i)
		}
		waitLocked(s, func() bool { return s.live+len(s.queue) == base+perSys })
	}
	submit(0, first)
	submit(perSys, second)
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	s.Close() // the last group's counters are in once it has ended
	st := s.Stats()
	if st.WaveGroups != 2 {
		t.Fatalf("WaveGroups = %d, want 2: one per System", st.WaveGroups)
	}
	if st.GroupJobs != 2*perSys {
		t.Fatalf("served %d jobs, want %d", st.GroupJobs, 2*perSys)
	}
}
