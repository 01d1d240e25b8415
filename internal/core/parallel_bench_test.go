package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/graphgen"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
)

// BenchmarkSuperstepWorkers is the sweep behind minGatherWorkers: a full
// engine run per iteration at the repository benchmark's size (RMAT27@11:
// 65 536 vertices, ≈ 1 M edges) for its two scan kernels, at host
// worker-pool sizes on both sides of the break-even — 1 and 2 run the
// kernels inline, 4 and 8 take the gather/apply path. "hkw-ms" is the host
// kernel wall-clock alone, the quantity the rule decides on; ns/op adds the
// simulation around it, allocs/op tracks the pooled hot path. What the
// parallel points show depends on how many real cores the runner has.
func BenchmarkSuperstepWorkers(b *testing.B) {
	d, _ := graphgen.ByName("RMAT27")
	sp, err := slottedpage.Build(d.MustGenerate(11), testConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []string{"PageRank", "CC"} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", algo, workers), func(b *testing.B) {
				b.ReportAllocs()
				var wall time.Duration
				for i := 0; i < b.N; i++ {
					var k kernels.Kernel
					if algo == "PageRank" {
						k = kernels.NewPageRank(sp, 0.85, 10)
					} else {
						k = kernels.NewCC(sp)
					}
					e, err := New(hw.Workstation(1, 0), sp, Options{HostWorkers: workers})
					if err != nil {
						b.Fatal(err)
					}
					rep, err := e.Run(k)
					if err != nil {
						b.Fatal(err)
					}
					wall += rep.HostKernelWall
				}
				b.ReportMetric(float64(wall.Microseconds())/1000/float64(b.N), "hkw-ms")
			})
		}
	}
}

// benchRun assembles a run context outside the simulation loop so the
// compute path can be exercised (and its allocations counted) in
// isolation: computeKernels never touches the sim, so this is exactly the
// state it sees mid-phase.
func benchRun(tb testing.TB, sp *slottedpage.Graph, k kernels.Kernel, workers int) (*member, []pageKey, []pidSet) {
	tb.Helper()
	e, err := New(hw.Workstation(1, 0), sp, Options{Source: 0, HostWorkers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	env := sim.NewEnv()
	m, err := hw.NewMachine(env, e.spec, int64(e.graph.Config().PageSize))
	if err != nil {
		tb.Fatal(err)
	}
	r := &member{plant: &plant{env: env, machine: m}, eng: e, k: k, workers: e.opts.HostWorkers}
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

// TestGatherApplyAllocBudget pins the pooled hot path: after one warm-up
// phase (which populates the deferred pool, the gather scratch, and the
// result slice), a steady-state computeKernels phase must stay within a
// small fixed allocation budget — the inline path allocation-free, which
// is also how a worker count below minGatherWorkers shows it ran inline,
// the parallel path paying only its per-wave goroutine launches. A whole
// inline BFS, every level, is held to the same zero: a page kernel decodes
// at the point of use and owns no buffer. The gather half is pinned on its
// own too, per page: once a Deferred has grown its op buffer, gathering a
// page into it allocates nothing.
func TestGatherApplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts")
	}
	g := rmatGraph(t)
	sp := buildPages(t, g)

	measure := func(workers int) float64 {
		k := kernels.NewPageRank(sp, 0.85, 5)
		r, jobs, locals := benchRun(t, sp, k, workers)
		phase := func() {
			r.kres = r.kres[:0]
			locals[0].Reset()
			r.computeKernels(jobs, 0, locals, false)
		}
		phase() // warm pools and scratch
		return testing.AllocsPerRun(20, phase)
	}

	for workers := 1; workers < minGatherWorkers; workers++ {
		if got := measure(workers); got > 0 {
			t.Errorf("workers=%d: phase allocates %.1f objects/run, want 0 (not inline, or the pooled hot path regressed)", workers, got)
		}
	}
	bfs := kernels.NewBFS(sp)
	r, jobs, locals := benchRun(t, sp, bfs, 1)
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
		t.Errorf("inline BFS: %d levels allocate %.1f objects/run, want a traversal of 3+ levels and 0", levels, got)
	}

	// The parallel path launches up to `workers` goroutines per wave; with
	// 8 workers, waveFactor 8 and this graph's page count that is a few
	// dozen closures. 128 leaves headroom without masking a regression to
	// per-page or per-op allocation (which would be thousands).
	for _, workers := range []int{minGatherWorkers, 8} {
		if got := measure(workers); got > 128 {
			t.Errorf("workers=%d: parallel phase allocates %.1f objects/run, want <= 128", workers, got)
		} else if got == 0 {
			t.Errorf("workers=%d: phase allocates nothing, so it did not take the gather/apply path", workers)
		}
	}

	// The goroutine launches above would hide one object per page on a
	// graph this small, so gather every page into one warmed Deferred with
	// no pool and no goroutine in the way: a decode that materialised a
	// record's neighbours would cost at least one object per record.
	for _, k := range []kernels.GatherKernel{kernels.NewPageRank(sp, 0.85, 5), kernels.NewCC(sp)} {
		r, jobs, locals := benchRun(t, sp, k, 1)
		d := new(kernels.Deferred)
		gatherAll := func() {
			for _, job := range jobs {
				r.argScratch = r.kernelArgs(job.gpu, job.pid, 0, locals[job.gpu])
				d.Reset()
				r.argScratch.Deferred = d
				runKernel(k, &r.argScratch, false)
			}
		}
		gatherAll()
		if got := testing.AllocsPerRun(20, gatherAll) / float64(len(jobs)); got > 0 {
			t.Errorf("%s: a steady-state gather allocates %.2f objects/page, want 0 (is something decoded ahead of use?)", k.Name(), got)
		}
	}
}
