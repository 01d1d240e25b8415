package sched_test

import (
	"context"
	"sync"
	"testing"
	"time"

	gts "repro"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// TestSchedulerFenceSplitsGenerations: jobs submitted across a Fence never
// coalesce into one wave group, so a group formed against one graph epoch
// is never joined by a job expecting the next epoch.
func TestSchedulerFenceSplitsGenerations(t *testing.T) {
	g := testGraph(t)
	// A long hold window so both generations are queued before any group
	// forms — without the fence they would coalesce into a single group.
	s := newSched(t, g, gts.Config{}, sched.Config{Hold: 60 * time.Millisecond})

	const perGen = 4
	var wg sync.WaitGroup
	errs := make([]error, 2*perGen)
	submit := func(base int) {
		for i := 0; i < perGen; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = s.Run(context.Background(), sched.Job{Kernel: kernels.NewBFS(g), Source: uint64(i % 8)})
			}(base + i)
		}
	}
	submit(0)
	time.Sleep(10 * time.Millisecond) // let generation-0 jobs enqueue
	s.Fence()
	submit(perGen)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	s.Close() // the last group's counters are in once it has ended
	st := s.Stats()
	if st.Fences != 1 {
		t.Fatalf("Fences = %d, want 1", st.Fences)
	}
	if st.WaveGroups < 2 {
		t.Fatalf("WaveGroups = %d, want >= 2 (fence must split the generations)", st.WaveGroups)
	}
	if st.GroupJobs != 2*perGen {
		t.Fatalf("served %d jobs, want %d", st.GroupJobs, 2*perGen)
	}
}
