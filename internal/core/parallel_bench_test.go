package core

import (
	"fmt"
	"math/rand"
	"sync"
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

// BenchmarkHostParallelCeiling measures what a second goroutine can buy on
// this host at all, before any HostWorkers setting is judged: the same fixed
// work — a memory-bound sweep (an edge list read in order with a random read
// of a small attribute vector per edge, as the repository benchmark's
// calibrator does) and an ALU-bound loop — run twice back to back and once
// each on two goroutines. "speedup" is serial over parallel: 2 on two idle
// cores, 1 where there is one core to run on, whatever runtime.NumCPU says.
// No product code reads it; EXPERIMENTS.md records it beside the sweep above.
func BenchmarkHostParallelCeiling(b *testing.B) {
	const vertices, edges = 1 << 16, 1 << 20
	r := rand.New(rand.NewSource(42))
	list, attr := make([]uint32, edges), make([]float32, vertices)
	for i := range list {
		list[i] = uint32(r.Intn(vertices))
	}
	for i := range attr {
		attr[i] = r.Float32()
	}
	var sinks [2]float64 // one slot per goroutine, written once
	works := []struct {
		name string
		work func(slot int)
	}{
		{"memory", func(slot int) {
			var acc float32
			for _, e := range list {
				acc += attr[e]
			}
			sinks[slot] = float64(acc)
		}},
		{"alu", func(slot int) {
			x := uint64(slot + 1)
			for i := 0; i < 1<<21; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			sinks[slot] = float64(x)
		}},
	}
	for _, w := range works {
		b.Run(w.name, func(b *testing.B) {
			var serial, parallel time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				w.work(0)
				w.work(1)
				t1 := time.Now()
				var wg sync.WaitGroup
				wg.Add(2)
				for slot := 0; slot < 2; slot++ {
					go func() {
						defer wg.Done()
						w.work(slot)
					}()
				}
				wg.Wait()
				serial += t1.Sub(t0)
				parallel += time.Since(t1)
			}
			b.ReportMetric(float64(serial)/float64(parallel), "speedup")
		})
	}
}

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
