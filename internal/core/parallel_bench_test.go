package core

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
)

// BenchmarkSuperstepWorkers measures a full engine run per iteration at a
// sweep of host worker-pool sizes — wall-clock ns/op is the quantity
// HostWorkers shrinks on a multi-core host (on a single-core runner the
// sweep degenerates but stays honest). allocs/op tracks the pooled hot
// path; "hkw-ms" reports the host kernel wall-clock alone.
func BenchmarkSuperstepWorkers(b *testing.B) {
	g := rmatGraph(&testing.T{})
	sp, err := slottedpage.Build(g, testConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []string{"BFS", "PageRank"} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", algo, workers), func(b *testing.B) {
				b.ReportAllocs()
				var wall float64
				for i := 0; i < b.N; i++ {
					var k kernels.Kernel
					if algo == "BFS" {
						k = kernels.NewBFS(sp)
					} else {
						k = kernels.NewPageRank(sp, 0.85, 5)
					}
					e, err := New(hw.Workstation(1, 0), sp, Options{Source: 0, HostWorkers: workers})
					if err != nil {
						b.Fatal(err)
					}
					rep, err := e.Run(k)
					if err != nil {
						b.Fatal(err)
					}
					wall = float64(rep.HostKernelWall.Microseconds()) / 1000
				}
				b.ReportMetric(wall, "hkw-ms")
			})
		}
	}
}

// benchRun assembles a run context outside the simulation loop so the
// compute path can be exercised (and its allocations counted) in
// isolation: computeKernels never touches the sim, so this is exactly the
// state it sees mid-phase.
func benchRun(tb testing.TB, sp *slottedpage.Graph, k kernels.Kernel, workers int) (*run, []pageKey, []pidSet) {
	tb.Helper()
	e, err := New(hw.Workstation(1, 0), sp, Options{Source: 0, HostWorkers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	r := &run{eng: e, k: k, env: sim.NewEnv(), inflight: map[slottedpage.PageID]*sim.Signal{}}
	r.workers = e.opts.HostWorkers
	numPages := e.graph.NumPages()
	r.pidPool.New = func() any { return bitset.New(numPages) }
	r.inj = fault.NewInjector(nil)
	m, err := hw.NewMachine(r.env, e.spec, int64(e.graph.Config().PageSize))
	if err != nil {
		tb.Fatal(err)
	}
	r.machine = m
	m.InjectFaults(r.inj)
	if err := r.setup(); err != nil {
		tb.Fatal(err)
	}
	var jobs []pageKey
	for pid := 0; pid < numPages; pid++ {
		jobs = append(jobs, pageKey{0, slottedpage.PageID(pid)})
	}
	locals := []pidSet{bitset.New(numPages)}
	r.kres = make(map[pageKey]kernels.Result, len(jobs))
	return r, jobs, locals
}

// TestGatherApplyAllocBudget pins the pooled hot path: after one warm-up
// phase (which populates the deferred pool, the gather scratch, and the
// result map), a steady-state computeKernels phase must stay within a
// small fixed allocation budget — the serial path allocation-free, the
// parallel path paying only its per-wave goroutine launches. The gather
// half is pinned on its own too, per page: once a Deferred has grown its op
// buffer and its adjacency-decode scratch, gathering a page into it
// allocates nothing.
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
			for key := range r.kres {
				delete(r.kres, key)
			}
			locals[0].Reset()
			r.computeKernels(jobs, 0, locals, false)
		}
		phase() // warm pools and scratch
		return testing.AllocsPerRun(20, phase)
	}

	if got := measure(1); got > 0 {
		t.Errorf("serial phase allocates %.1f objects/run, want 0 (pooled hot path regressed)", got)
	}
	// The parallel path launches up to `workers` goroutines per wave; with
	// 8 workers, waveFactor 8 and this graph's page count that is a few
	// dozen closures. 128 leaves headroom without masking a regression to
	// per-page or per-op allocation (which would be thousands).
	if got := measure(8); got > 128 {
		t.Errorf("parallel phase allocates %.1f objects/run, want <= 128", got)
	}

	// The goroutine launches above would hide one object per page on a
	// graph this small, so gather every page into one warmed Deferred with
	// no pool and no goroutine in the way: a decode that stopped reusing
	// the Deferred's scratch costs at least one object per record.
	for _, k := range []kernels.GatherKernel{kernels.NewPageRank(sp, 0.85, 5), kernels.NewCC(sp)} {
		r, jobs, locals := benchRun(t, sp, k, 1)
		d := new(kernels.Deferred)
		gatherAll := func() {
			for _, job := range jobs {
				r.argScratch = r.kernelArgs(job.gpu, job.pid, 0, locals[job.gpu])
				d.Reset()
				if sp.Kind(job.pid) == slottedpage.LargePage {
					k.GatherLP(&r.argScratch, d)
				} else {
					k.GatherSP(&r.argScratch, d)
				}
			}
		}
		gatherAll()
		if got := testing.AllocsPerRun(20, gatherAll) / float64(len(jobs)); got > 0 {
			t.Errorf("%s: a steady-state gather allocates %.2f objects/page, want 0 (decode scratch not reused?)", k.Name(), got)
		}
	}
}
