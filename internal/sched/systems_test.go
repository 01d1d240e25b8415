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

// TestSchedulerNeverMixesSystems: jobs built against two Systems over one
// graph — two epochs of a graph, say — never share a wave group, so a group
// formed on one snapshot is never joined by a job expecting the other.
func TestSchedulerNeverMixesSystems(t *testing.T) {
	g := testGraph(t)
	// A long hold window so every job is queued before any group forms —
	// jobs of one System would coalesce into a single group.
	s, first := newSched(t, g, gts.Config{}, sched.Config{Hold: 60 * time.Millisecond})
	second, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}

	const perSys = 4
	var wg sync.WaitGroup
	errs := make([]error, 2*perSys)
	submit := func(base int, sys *gts.System) {
		for i := 0; i < perSys; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = s.Run(context.Background(), sys, sched.Job{Kernel: kernels.NewBFS(g), Source: uint64(i % 8)})
			}(base + i)
		}
	}
	submit(0, first)
	time.Sleep(10 * time.Millisecond) // let the first System's jobs enqueue
	submit(perSys, second)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	s.Close() // the last group's counters are in once it has ended
	st := s.Stats()
	if st.WaveGroups < 2 {
		t.Fatalf("WaveGroups = %d, want >= 2 (jobs of two Systems must not share a group)", st.WaveGroups)
	}
	if st.GroupJobs != 2*perSys {
		t.Fatalf("served %d jobs, want %d", st.GroupJobs, 2*perSys)
	}
}
