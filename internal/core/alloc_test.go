package core

import (
	"testing"

	"repro/internal/bitset"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
)

// TestRunAllocBudget pins the objects a whole run allocates — PageRank(10)
// on the test graph: 42 pages, up to 32 stream processes per phase per
// wave. It measures 982; with a Proc, a channel, a completion
// Signal, a Handle and a goroutine per process the parent commit's run
// allocated 2217, and coroutines that exited with their bodies would cost
// more than that (iter.Pull is several objects), so the bound fails if
// internal/sim stops reusing them.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts")
	}
	sp := buildPages(t, rmatGraph(t))
	e := newEngine(t, sp, Options{}, 1, 0)
	run := func() { mustRun(t, e, kernels.NewPageRank(sp, 0.85, 10)) }
	run() // warm the engine's pools
	if got := testing.AllocsPerRun(10, run); got > 1200 {
		t.Errorf("a PageRank(10) run allocates %.0f objects, want <= 1200", got)
	}
}

// benchRun assembles a run context outside the simulation loop so the
// compute path can be exercised (and its allocations counted) in
// isolation: computeKernels never touches the sim, so this is exactly the
// state it sees mid-phase.
func benchRun(tb testing.TB, sp *slottedpage.Graph, k kernels.Kernel) (*member, []pageKey, []pidSet) {
	tb.Helper()
	e, err := New(hw.Workstation(1, 0), sp, Options{Source: 0})
	if err != nil {
		tb.Fatal(err)
	}
	env := sim.NewEnv()
	m, err := hw.NewMachine(env, e.spec, int64(e.graph.Config().PageSize))
	if err != nil {
		tb.Fatal(err)
	}
	r := &member{plant: &plant{env: env, machine: m}, eng: e, k: k}
	numPages := e.graph.NumPages()
	r.pidPool.New = func() any { return bitset.New(numPages) }
	r.setupStates()
	var jobs []pageKey
	for pid := 0; pid < numPages; pid++ {
		jobs = append(jobs, pageKey{0, slottedpage.PageID(pid)})
	}
	locals := []pidSet{bitset.New(numPages)}
	return r, jobs, locals
}

// TestComputeKernelsAllocBudget pins the host kernel loop: after one warm-up
// phase (which grows the result slice), a steady-state computeKernels phase
// allocates 0 objects, and so does a whole BFS, every level — a page kernel
// decodes at the point of use and owns no buffer.
func TestComputeKernelsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts")
	}
	g := rmatGraph(t)
	sp := buildPages(t, g)

	r, jobs, locals := benchRun(t, sp, kernels.NewPageRank(sp, 0.85, 5))
	phase := func() {
		r.kres = r.kres[:0]
		locals[0].Reset()
		r.computeKernels(jobs, 0, locals, false)
	}
	phase() // warm the result slice
	if got := testing.AllocsPerRun(20, phase); got > 0 {
		t.Errorf("PageRank phase allocates %.1f objects/run, want 0", got)
	}

	bfs := kernels.NewBFS(sp)
	r, jobs, locals = benchRun(t, sp, bfs)
	levels := int32(0)
	traverse := func() {
		bfs.Init(r.stateFor(0), 0)
		for levels = 0; levels == 0 || locals[0].Any(); levels++ {
			r.kres = r.kres[:0]
			locals[0].Reset()
			r.computeKernels(jobs, levels, locals, false)
		}
	}
	traverse() // warm the result slice
	if got := testing.AllocsPerRun(5, traverse); got > 0 || levels < 3 {
		t.Errorf("BFS: %d levels allocate %.1f objects/run, want a traversal of 3+ levels and 0", levels, got)
	}
}
