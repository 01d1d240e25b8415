package core

import (
	"bytes"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
)

// runCountingLaunches runs job on e as RunJob does — the device it leaves
// carries over to e's next run — and returns its report with the kernel
// launches the machine's GPUs made (hw.GPUStats.KernelCalls).
func runCountingLaunches(t *testing.T, e *Engine, job SharedJob) (*Report, int64) {
	t.Helper()
	r, err := e.newRun(job)
	if err != nil {
		t.Fatal(err)
	}
	r.env.Process("gts-framework", r.loop)
	elapsed, err := r.env.Run()
	if err != nil {
		t.Fatal(err)
	}
	e.device = r.caches
	if r.abort != nil {
		t.Fatal(r.abort)
	}
	var calls int64
	for _, g := range r.machine.GPUs {
		calls += g.Stats().KernelCalls
	}
	rep := r.report(elapsed)
	return &rep, calls
}

// slowLaunchEngine is an engine on gpus GPUs whose every kernel launch
// costs 1 ms, far above any page's kernel time on the test graphs.
func slowLaunchEngine(t *testing.T, sp *slottedpage.Graph, gpus int, opts Options) *Engine {
	t.Helper()
	spec := hw.Workstation(gpus, 0)
	for i := range spec.GPUs {
		spec.GPUs[i].LaunchOverhead = sim.Millisecond
	}
	e, err := New(spec, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestResidentPagesShareALaunch pins processDemand's launch rule: within a
// wave, a stream's kernels for resident pages run inside one launch, and
// every copied page launches on its own.
// Launch overhead here is 1 ms, so a launch too many shows in Elapsed as
// well as in the GPU's launch count.
func TestResidentPagesShareALaunch(t *testing.T) {
	sp := buildPages(t, rmatGraph(t))
	n := int64(sp.NumPages())
	pr := kernelCases()[2] // PageRank, 5 iterations: 5 waves
	const waves, streams = 5, 4
	run := func(e *Engine) (*Report, []byte, int64) {
		t.Helper()
		k := pr.make(sp)
		rep, calls := runCountingLaunches(t, e, SharedJob{Kernel: k})
		return rep, pr.enc(k, rep.State), calls
	}

	// Without a cache every page streams in every wave and launches alone.
	off, want, calls := run(slowLaunchEngine(t, sp, 1, Options{Streams: streams, CacheBytes: CacheDisabled}))
	if calls != waves*n || off.PagesStreamed != calls {
		t.Errorf("cache disabled: %d launches for %d pages streamed, want one per page (%d)", calls, off.PagesStreamed, waves*n)
	}

	// Cold: the first wave copies every page and launches per page; each
	// later wave finds every page resident and opens one launch per stream.
	e := slowLaunchEngine(t, sp, 1, Options{Streams: streams})
	cold, got, calls := run(e)
	if cold.PagesStreamed != n || calls != n+(waves-1)*streams {
		t.Errorf("cold: %d launches, %d pages streamed; want %d + %d waves x %d streams", calls, cold.PagesStreamed, n, waves-1, streams)
	}
	if !bytes.Equal(got, want) {
		t.Error("cold: ranks differ from the cache-disabled run's")
	}

	// Warm and fully resident: one launch per stream per wave, so Elapsed
	// is about one overhead per wave, where a launch per page would cost
	// n/streams overheads per wave.
	warm, got, calls := run(e)
	if warm.PagesStreamed != 0 || calls != waves*streams {
		t.Errorf("warm: %d launches, %d pages streamed; want %d waves x %d streams, 0", calls, warm.PagesStreamed, waves, streams)
	}
	if warm.Elapsed < waves*sim.Millisecond || warm.Elapsed > 2*waves*sim.Millisecond {
		t.Errorf("warm: Elapsed %v, want about one 1 ms launch per wave (%d waves)", warm.Elapsed, waves)
	}
	if !bytes.Equal(got, want) {
		t.Error("warm: ranks differ from the cache-disabled run's")
	}

	// A multi-source BFS's page is one launch however many lanes run it:
	// two warm lanes from one source launch as often as one BFS from it.
	_, solo := runCountingLaunches(t, e, SharedJob{Kernel: kernels.NewBFS(sp), Source: 7})
	lanes := []*kernels.BFS{kernels.NewBFS(sp), kernels.NewBFS(sp)}
	_, twin := runCountingLaunches(t, e, SharedJob{Kernel: kernels.NewMultiBFS(sp, lanes, []uint64{7, 7}), Source: 7})
	if twin != solo {
		t.Errorf("two warm lanes: %d launches, one BFS %d", twin, solo)
	}

	// Two GPUs under Strategy-P stream each page's RA with it, even when the
	// page is resident: that copy closes the launch as a page copy does.
	two := slowLaunchEngine(t, sp, 2, Options{Streams: streams})
	run(two)
	w, _, calls := run(two)
	if w.PagesStreamed != 0 || calls != w.CacheHits {
		t.Errorf("two GPUs, warm: %d launches for %d resident pages with streamed RA, want one each", calls, w.CacheHits)
	}
}

// TestCopyClosesTheOpenLaunch: on one stream, with a cache of half the
// topology that a BFS filled out of page order, a warm PageRank's resident
// pages alternate with pages it copies. Every copied page launches, and
// the resident page after it opens a new launch: a wave makes one launch
// per copied page and one per run of resident pages between copies.
func TestCopyClosesTheOpenLaunch(t *testing.T) {
	sp := buildPages(t, rmatGraph(t))
	n := sp.NumPages()
	pr, bfs := kernelCases()[2], kernelCases()[0]
	const waves = 5
	e := slowLaunchEngine(t, sp, 1, Options{Streams: 1, CacheBytes: sp.TopologyBytes() / 2})
	runCountingLaunches(t, e, SharedJob{Kernel: bfs.make(sp), Source: 7})

	resident := e.device[0]
	var copied, runs int64
	for pid := 0; pid < n; pid++ {
		switch {
		case !resident.Contains(uint64(pid)):
			copied++
		case pid == 0 || !resident.Contains(uint64(pid-1)):
			runs++
		}
	}
	if copied == 0 || runs < 2 {
		t.Fatalf("the BFS left %d of %d pages resident in %d runs: no copy falls between resident pages", n-int(copied), n, runs)
	}
	k := pr.make(sp)
	got, calls := runCountingLaunches(t, e, SharedJob{Kernel: k})
	if got.PagesStreamed != waves*copied || calls != waves*(copied+runs) {
		t.Errorf("%d launches, %d pages streamed; want %d waves x (%d copied + %d resident runs), %d",
			calls, got.PagesStreamed, waves, copied, runs, waves*copied)
	}
	if want, _ := runDigest(t, sp, pr, Options{CacheBytes: CacheDisabled}, 1, 0); !bytes.Equal(pr.enc(k, got.State), want) {
		t.Error("ranks differ from the cache-disabled run's")
	}
}
