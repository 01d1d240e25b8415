package core

import (
	"runtime"
	"testing"

	"repro/internal/kernels"
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

// TestComputeKernelsAllocBudget pins the functional half of a run, planner
// step: BeginLevel, every page kernel of a wave, the replica merge and the
// plan of the next level. With the run's table at the size the widest wave
// needs, every wave of a whole PageRank, of a whole BFS and of a whole 8-lane
// multi-source BFS allocates 0 objects — a page kernel decodes at the point
// of use and owns no buffer, and MultiBFS's seen masks come with its state.
func TestComputeKernelsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sp := buildPages(t, rmatGraph(t))
	sources := bfsSources(8, sp.NumVertices())
	lanes := make([]*kernels.BFS, len(sources))
	for i := range lanes {
		lanes[i] = kernels.NewBFS(sp)
	}
	for _, job := range []SharedJob{
		{Kernel: kernels.NewPageRank(sp, 0.85, 5)},
		{Kernel: kernels.NewBFS(sp), Source: sources[0]},
		{Kernel: kernels.NewMultiBFS(sp, lanes, sources), Source: sources[0]},
	} {
		r, err := newEngine(t, sp, Options{}, 1, 0).newRun(job)
		if err != nil {
			t.Fatal(err)
		}
		n := sp.NumPages()
		w := &wave{pids: make([]slottedpage.PageID, 0, n), res: make([]kernels.Result, 0, n), gpuEnd: make([]int, 0, 1)}
		// The functional half alone, on this goroutine: no simulation plays
		// the tables, and none needs to.
		r.pl.begin()
		perWave := make([]uint64, 0, 64) // grown by append, it would count its own growth
		for !w.final && w.err == nil {
			before := mallocs()
			r.pl.step(w)
			perWave = append(perWave, mallocs()-before)
		}
		var total uint64
		for _, n := range perWave {
			total += n
		}
		if len(perWave) < 3 || total > 0 || w.err != nil {
			t.Errorf("%T: %d waves allocate %v objects in the functional half (err %v), want 3+ waves and none", job.Kernel, len(perWave), perWave, w.err)
		}
	}
}
