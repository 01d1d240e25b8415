package core

import (
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
)

// TestRunAllocBudget pins the objects a whole run allocates — PageRank(10)
// on the test graph: 42 pages, up to 32 stream processes per wave. It
// measures 920; with a Proc, a channel, a completion Signal, a Handle and a
// goroutine per process a run allocated 2217, and coroutines that exited
// with their bodies would cost more than that (iter.Pull is several
// objects), so the bound fails if internal/sim stops reusing them.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts")
	}
	sp := buildPages(t, rmatGraph(t))
	e := newEngine(t, sp, Options{}, 1, 0)
	run := func() { mustRun(t, e, kernels.NewPageRank(sp, 0.85, 10), 0) }
	run() // warm the engine's pools
	if got := testing.AllocsPerRun(10, run); got > 1200 {
		t.Errorf("a PageRank(10) run allocates %.0f objects, want <= 1200", got)
	}
}

// mallocs reads the process's allocation count the way testing.AllocsPerRun
// does, for code that cannot be run twice (a kernel moves its state).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestComputeKernelsAllocBudget pins the host kernel loop, planWave: every
// page kernel of a wave. With the run's table at the size the widest wave
// needs, a PageRank wave allocates 0 objects, and so does every wave of a
// whole BFS and of a whole 8-lane multi-source BFS — a page kernel decodes
// at the point of use and owns no buffer, and MultiBFS's seen masks come
// with its state.
func TestComputeKernelsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sp := buildPages(t, rmatGraph(t))
	// inRun runs body as the framework process of a run of job that has
	// uploaded its WA and grown its wave table.
	inRun := func(job SharedJob, body func(p *sim.Proc, r *run)) {
		r, err := newEngine(t, sp, Options{}, 1, 0).newRun(job)
		if err != nil {
			t.Fatal(err)
		}
		n := sp.NumPages()
		r.pids, r.res, r.gpuEnd = make([]slottedpage.PageID, 0, n), make([]kernels.Result, 0, n), make([]int, 0, 1)
		r.env.Process("alloc-budget", func(p *sim.Proc) {
			r.begin(p)
			body(p, r)
		})
		if _, err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
	}

	inRun(SharedJob{Kernel: kernels.NewPageRank(sp, 0.85, 5)}, func(p *sim.Proc, r *run) {
		r.beginWave()
		if got := testing.AllocsPerRun(20, r.planWave); got > 0 {
			t.Errorf("PageRank wave allocates %.1f objects/run, want 0", got)
		}
	})

	sources := bfsSources(8, sp.NumVertices())
	lanes := make([]*kernels.BFS, len(sources))
	for i := range lanes {
		lanes[i] = kernels.NewBFS(sp)
	}
	for _, job := range []SharedJob{
		{Kernel: kernels.NewBFS(sp), Source: sources[0]},
		{Kernel: kernels.NewMultiBFS(sp, lanes, sources), Source: sources[0]},
	} {
		inRun(job, func(p *sim.Proc, r *run) {
			var perWave []uint64
			for r.abort == nil && !r.done {
				r.beginWave()
				before := mallocs()
				r.planWave()
				perWave = append(perWave, mallocs()-before)
				r.streamDemand(p)
				r.endWave(p)
			}
			var total uint64
			for _, n := range perWave {
				total += n
			}
			if len(perWave) < 3 || total > 0 {
				t.Errorf("%T: %d waves allocate %v objects in planWave, want 3+ waves and none", job.Kernel, len(perWave), perWave)
			}
		})
	}
}
