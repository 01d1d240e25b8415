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

// TestComputeKernelsAllocBudget pins the host kernel loop, planWave: the
// demand table and every page kernel of a wave. With the driver's tables at
// the size the widest wave needs, a PageRank wave allocates 0 objects, and so
// does every wave of a whole BFS and of a whole 8-member BFS group — a page
// kernel decodes at the point of use and owns no buffer — except that the
// group's first shared page brings the BFSGroup's mask array (and the three
// small slices around it) into being, once per run.
func TestComputeKernelsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sp := buildPages(t, rmatGraph(t))
	// inDriver runs body as the framework process of a group of jobs that has
	// begun its members and grown its demand tables.
	inDriver := func(jobs []SharedJob, body func(p *sim.Proc, d *driver)) {
		d, err := newEngine(t, sp, Options{}, 1, 0).newDriver(jobs)
		if err != nil {
			t.Fatal(err)
		}
		n := len(jobs) * sp.NumPages()
		d.pids, d.off, d.dem = make([]slottedpage.PageID, 0, n), make([]int, 0, n+1), make([]demand, 0, n)
		d.gpuEnd, d.lanes = make([]int, 0, 1), make([]kernels.BFSLane, 0, len(jobs))
		d.env.Process("alloc-budget", func(p *sim.Proc) {
			for _, m := range d.active {
				d.beginMember(p, m)
			}
			body(p, d)
		})
		if _, err := d.env.Run(); err != nil {
			t.Fatal(err)
		}
	}

	inDriver([]SharedJob{{Kernel: kernels.NewPageRank(sp, 0.85, 5)}}, func(p *sim.Proc, d *driver) {
		d.beginWave(d.active[0])
		if got := testing.AllocsPerRun(20, d.planWave); got > 0 {
			t.Errorf("PageRank wave allocates %.1f objects/run, want 0", got)
		}
	})

	for _, members := range []int{1, 8} {
		var jobs []SharedJob
		for _, src := range bfsSources(members, sp.NumVertices()) {
			jobs = append(jobs, SharedJob{Kernel: kernels.NewBFS(sp), Source: src})
		}
		inDriver(jobs, func(p *sim.Proc, d *driver) {
			var perWave []uint64
			for len(d.active) > 0 {
				for _, m := range d.active {
					d.beginWave(m)
				}
				before := mallocs()
				d.planWave()
				perWave = append(perWave, mallocs()-before)
				d.streamDemand(p)
				for _, m := range d.active {
					d.endWave(p, m)
				}
				d.retireFinished()
			}
			var total uint64
			allocating := 0
			for _, n := range perWave {
				total += n
				if n > 0 {
					allocating++
				}
			}
			budget := uint64(0)
			if members > 1 {
				budget = 5 // the mask array, the two slices that index it, the frontier mask, once
			}
			if len(perWave) < 3 || total > budget || allocating > 1 {
				t.Errorf("%d BFS: %d waves allocate %v objects in planWave, want 3+ waves and at most %d objects, all in one wave",
					members, len(perWave), perWave, budget)
			}
			if members > 1 && total == 0 {
				t.Error("8 BFS: no wave met a shared page")
			}
		})
	}
}
