package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/csr"
	"repro/internal/fault"
	"repro/internal/graphgen"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
	"repro/internal/verify"
)

// mustRunShared runs a roster that must run and returns its outcomes, in
// job order.
func mustRunShared(t *testing.T, e *Engine, jobs []SharedJob) ([]SharedOutcome, SharedStats) {
	t.Helper()
	outs, stats, err := e.RunShared(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return outs, stats
}

// The roster tests below take their expected results from oracles that
// share no code with the engine: the checked-in golden.json digests (pinned
// before the engines were merged) and the sequential references in
// internal/verify.

// wantGolden asserts state encodes to the kernel's clean golden.json digest
// (seeded RMAT27 proxy, source 0, one in-memory GPU).
func wantGolden(t *testing.T, kc kernelCase, k kernels.Kernel, st kernels.State) {
	t.Helper()
	sum := sha256.Sum256(kc.enc(k, st))
	if got, want := hex.EncodeToString(sum[:]), readGolden(t)[kc.name].Clean; got != want {
		t.Errorf("%s: state digest %s, golden %s", kc.name, got, want)
	}
}

// wantBFS asserts got equals the reference traversal from src.
func wantBFS(t *testing.T, label string, g *csr.Graph, src uint64, got []int16) {
	t.Helper()
	for v, want := range verify.BFS(g, uint32(src)) {
		if got[v] != want {
			t.Fatalf("%s (source %d): vertex %d level = %d, reference %d", label, src, v, got[v], want)
		}
	}
}

// wantPageRank asserts got matches the float64 reference within the
// tolerance the per-configuration engine tests use.
func wantPageRank(t *testing.T, label string, g *csr.Graph, iterations int, got []float32) {
	t.Helper()
	for v, want := range verify.PageRank(g, 0.85, iterations) {
		if math.Abs(float64(got[v])-want) > 1e-4*math.Max(want, 1e-9)+1e-7 {
			t.Fatalf("%s: vertex %d rank = %v, reference %v", label, v, got[v], want)
		}
	}
}

// TestSharedMatchesSoloAllKernels is the engine's acceptance test: every
// built-in kernel run through RunShared as a roster of one leaves its state
// byte-identical to the kernel's pinned digest. A roster of several jobs
// runs only plain BFS: one that mixes kernels, or holds direction-optimizing
// BFS, is refused, every job carrying the error, and runs nothing — the
// device stays cold.
func TestSharedMatchesSoloAllKernels(t *testing.T) {
	sp := buildPages(t, rmatGraph(t))
	var mixed []SharedJob
	for _, kc := range kernelCases() {
		k := kc.make(sp)
		outs, stats := mustRunShared(t, newEngine(t, sp, Options{}, 1, 0), []SharedJob{{Kernel: k}})
		if outs[0].Err != nil || outs[0].Declined || stats.Waves == 0 {
			t.Fatalf("%s: outcome err=%v declined=%v after %d waves", kc.name, outs[0].Err, outs[0].Declined, stats.Waves)
		}
		wantGolden(t, kc, k, outs[0].State)
		mixed = append(mixed, SharedJob{Kernel: kc.make(sp)})
	}
	dirOpt := []SharedJob{{Kernel: kernels.NewDirBFS(sp)}, {Kernel: kernels.NewDirBFS(sp), Source: 1}}
	for name, roster := range map[string][]SharedJob{"mixed": mixed, "direction-optimizing": dirOpt} {
		e := newEngine(t, sp, Options{}, 1, 0)
		outs, _, err := e.RunShared(roster)
		if err == nil || len(outs) != len(roster) {
			t.Fatalf("a %s roster: %d outcomes for %d jobs, err %v; want one each and an error", name, len(outs), len(roster), err)
		}
		for i, o := range outs {
			if o.Err != err {
				t.Errorf("%s: job %d carries %v, want the roster's error", name, i, o.Err)
			}
		}
		if e.device[0] != nil {
			t.Errorf("a refused %s roster left pages on the device", name)
		}
	}
}

// bfsSources returns n distinct BFS sources spread across the vertex set.
// Distinct sources matter: at the service layer identical requests would be
// absorbed by single-flight dedup rather than exercising wave sharing.
func bfsSources(n int, nV uint64) []uint64 {
	stride := nV / uint64(n)
	if stride == 0 {
		stride = 1
	}
	src := make([]uint64, n)
	for i := range src {
		src[i] = uint64(i) * stride % nV
	}
	return src
}

// TestShared32BFSAmortizesBytes is sharing's headline acceptance: 32
// concurrent BFS jobs from distinct sources on one graph must stream at
// most 2x the topology bytes of one of them run alone, record shared
// copies, and leave every member equal to the reference traversal.
func TestShared32BFSAmortizesBytes(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	pageSize := int64(sp.Config().PageSize)
	sources := bfsSources(32, sp.NumVertices())

	var soloBytes int64
	for _, s := range sources {
		rep := mustRun(t, newEngine(t, sp, Options{}, 1, 0), kernels.NewBFS(sp), s)
		if b := rep.PagesStreamed * pageSize; b > soloBytes {
			soloBytes = b
		}
	}

	var jobs []SharedJob
	made := make([]*kernels.BFS, len(sources))
	for i, s := range sources {
		made[i] = kernels.NewBFS(sp)
		jobs = append(jobs, SharedJob{Kernel: made[i], Source: s})
	}
	outs, stats := mustRunShared(t, newEngine(t, sp, Options{}, 1, 0), jobs)

	for i, s := range sources {
		if outs[i].Err != nil || outs[i].Declined {
			t.Fatalf("job %d: err=%v declined=%v", i, outs[i].Err, outs[i].Declined)
		}
		wantBFS(t, "group member", g, s, made[i].Levels(outs[i].Report.State))
	}
	if stats.PageCopies*pageSize > 2*soloBytes {
		t.Errorf("group streamed %d topology bytes, want <= 2x solo (%d)", stats.PageCopies*pageSize, 2*soloBytes)
	}
	if stats.BytesToGPU <= 0 {
		t.Errorf("BytesToGPU = %v", stats.BytesToGPU)
	}
	// The whole point: each member paid far less than a solo run's traffic.
	if stats.BytesSaved == 0 || stats.Servings <= stats.PageCopies {
		t.Errorf("no bytes saved across 32 members: %d servings of %d copies", stats.Servings, stats.PageCopies)
	}
}

// TestSharedFaultedMatchesClean: a multi-BFS roster under the engine's chaos
// plan must produce results byte-identical to a clean one, and both must
// equal the reference traversals.
func TestSharedFaultedMatchesClean(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	sources := []uint64{0, 512, 1024, 1536}

	run := func(opts Options) [][]int16 {
		var jobs []SharedJob
		made := make([]*kernels.BFS, len(sources))
		for i, s := range sources {
			made[i] = kernels.NewBFS(sp)
			jobs = append(jobs, SharedJob{Kernel: made[i], Source: s})
		}
		outs, _ := mustRunShared(t, newEngine(t, sp, opts, 1, 1), jobs)
		res := make([][]int16, len(sources))
		for i := range sources {
			if outs[i].Err != nil {
				t.Fatalf("job %d: %v", i, outs[i].Err)
			}
			res[i] = append([]int16(nil), made[i].Levels(outs[i].Report.State)...)
		}
		return res
	}

	clean, faulted := run(Options{}), run(Options{Faults: chaosPlan()})
	for i := range sources {
		if !bytes.Equal(encodeVec(clean[i]), encodeVec(faulted[i])) {
			t.Errorf("job %d: faulted run differs from the clean run", i)
		}
	}
	for i, s := range sources {
		wantBFS(t, "clean job", g, s, clean[i])
	}
}

// TestSharedSourceOutOfRangeFailsOnlyItsJob: a job whose source is not a
// vertex gets an error outcome at enrolment (its kernel's Init would index
// past the level vector and take the whole group down with it), and the jobs
// on either side of it finish with the bytes they produce alone.
func TestSharedSourceOutOfRangeFailsOnlyItsJob(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	nV := sp.NumVertices()
	sources := []uint64{0, nV + 5, 512}
	var jobs []SharedJob
	for _, s := range sources {
		jobs = append(jobs, SharedJob{Kernel: kernels.NewBFS(sp), Source: s})
	}
	outs, _ := mustRunShared(t, newEngine(t, sp, Options{}, 1, 0), jobs)
	if !errors.Is(outs[1].Err, ErrSourceOutOfRange) || outs[1].Declined {
		t.Fatalf("out-of-range member: err=%v declined=%v, want ErrSourceOutOfRange", outs[1].Err, outs[1].Declined)
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil || outs[i].Declined {
			t.Fatalf("member %d: err=%v declined=%v", i, outs[i].Err, outs[i].Declined)
		}
		got := jobs[i].Kernel.(*kernels.BFS).Levels(outs[i].State)
		wantBFS(t, "neighbour of the bad job", g, sources[i], got)
		alone := kernels.NewBFS(sp)
		rep := mustRun(t, newEngine(t, sp, Options{}, 1, 0), alone, sources[i])
		if !bytes.Equal(encodeVec(got), encodeVec(alone.Levels(rep.State))) {
			t.Errorf("member %d's levels differ from its solo run's", i)
		}
	}
	if _, err := newEngine(t, sp, Options{}, 1, 0).RunJob(SharedJob{Kernel: kernels.NewSSSP(sp), Source: nV}); !errors.Is(err, ErrSourceOutOfRange) {
		t.Errorf("Run from vertex |V|: err = %v, want ErrSourceOutOfRange", err)
	}
}

// TestSharedMultiGPUStrategies: under both placement strategies with
// multiple GPUs and storage, a multi-BFS roster's jobs — a plain BFS and a
// k-hop ball — must match the references, and a job's bytes must not depend
// on who shares its waves.
func TestSharedMultiGPUStrategies(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	for _, cfg := range []config{
		{"P-2gpu-mem", StrategyP, 2, 0},
		{"S-2gpu-mem", StrategyS, 2, 0},
		{"P-2gpu-2ssd", StrategyP, 2, 2},
		{"S-2gpu-2ssd", StrategyS, 2, 2},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			opts := Options{Strategy: cfg.strategy}
			bfs, ball := kernels.NewBFS(sp), kernels.NewNeighborhood(sp, 2)
			outs, _ := mustRunShared(t, newEngine(t, sp, opts, cfg.gpus, cfg.ssds), []SharedJob{
				{Kernel: bfs, Source: 0},
				{Kernel: ball, Source: 700},
			})
			for i, o := range outs {
				if o.Err != nil || o.Declined {
					t.Fatalf("outcome %d: err=%v declined=%v", i, o.Err, o.Declined)
				}
			}
			wantBFS(t, "BFS job", g, 0, bfs.Levels(outs[0].Report.State))
			alone := kernels.NewNeighborhood(sp, 2)
			rep := mustRun(t, newEngine(t, sp, opts, cfg.gpus, cfg.ssds), alone, 700)
			if !bytes.Equal(encodeVec(ball.Levels(outs[1].Report.State)), encodeVec(alone.Levels(rep.State))) {
				t.Error("the k-hop ball's bytes changed with the company it kept")
			}
			if outs[1].Levels != rep.Levels || outs[1].EdgesTraversed != rep.EdgesTraversed || outs[1].Updates != rep.Updates {
				t.Errorf("the k-hop ball: %d levels, %d edges, %d updates; alone %d, %d, %d",
					outs[1].Levels, outs[1].EdgesTraversed, outs[1].Updates, rep.Levels, rep.EdgesTraversed, rep.Updates)
			}
		})
	}
}

// TestSharedDeclineWhenWAWontFit: a multi-BFS roster whose lanes' WA cannot
// fit beside the stream buffers is declined, every job of it, rather than
// failing; each of its jobs still runs alone on the same machine.
func TestSharedDeclineWhenWAWontFit(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	spec := hw.Workstation(1, 0)
	// Stream buffers (BFS streams no RA) and room for two BFS WAs, not three.
	spec.GPUs[0].DeviceMemory = 32*2*int64(sp.Config().PageSize) + 5*int64(sp.NumVertices())
	e, err := New(spec, sp, Options{CacheBytes: CacheDisabled})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []SharedJob
	for _, src := range []uint64{0, 512, 1024} {
		jobs = append(jobs, SharedJob{Kernel: kernels.NewBFS(sp), Source: src})
	}
	outs, _ := mustRunShared(t, e, jobs)
	for i, o := range outs {
		if !o.Declined || o.Err != nil {
			t.Errorf("job %d: declined %v, err %v; want declined", i, o.Declined, o.Err)
		}
	}
	outs, _ = mustRunShared(t, e, jobs[:2])
	for i, o := range outs {
		if o.Err != nil || o.Declined {
			t.Fatalf("two jobs: job %d: err %v, declined %v", i, o.Err, o.Declined)
		}
		wantBFS(t, "one of two", g, jobs[i].Source, jobs[i].Kernel.(*kernels.BFS).Levels(o.State))
	}
}

// panicsAt is a plain BFS whose kernel panics when its level-th superstep
// begins.
type panicsAt struct {
	*kernels.BFS
	level int32
}

func (k panicsAt) BeginLevel(_ []kernels.State, level int32) {
	if level == k.level {
		panic("kernel fault")
	}
}

// TestSharedOutcomes: RunShared returns one outcome per job in job order,
// however the job ended: finished, malformed, aborted on its fault budget,
// declined, or in a run that itself fails, which gives its error to every
// job.
func TestSharedOutcomes(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	bfs := func(src uint64) SharedJob { return SharedJob{Kernel: kernels.NewBFS(sp), Source: src} }

	t.Run("finished-malformed-aborted", func(t *testing.T) {
		jobs := []SharedJob{bfs(0), bfs(sp.NumVertices())}
		outs, _ := mustRunShared(t, newEngine(t, sp, Options{}, 1, 1), jobs)
		if outs[0].Err != nil || outs[0].Levels == 0 {
			t.Errorf("finished job: err %v after %d levels", outs[0].Err, outs[0].Levels)
		}
		if !errors.Is(outs[1].Err, ErrSourceOutOfRange) {
			t.Errorf("malformed job: %v", outs[1].Err)
		}
		if outs, _ := mustRunShared(t, newEngine(t, sp, Options{}, 1, 1), []SharedJob{{Source: 1}}); outs[0].Err == nil {
			t.Error("a job without a kernel ran")
		}
		// Transfer errors on every copy: the run aborts in its WA upload, and
		// storage corruption on every read aborts it mid-run.
		for _, plan := range []*fault.Plan{{Seed: 3, TransferErrorRate: 1}, {Seed: 7, CorruptionRate: 1}} {
			outs, _ := mustRunShared(t, newEngine(t, sp, Options{Faults: plan}, 1, 1), []SharedJob{bfs(0), bfs(512)})
			for i, o := range outs {
				if !errors.Is(o.Err, ErrHardwareFault) {
					t.Errorf("%+v: job %d: err %v, want ErrHardwareFault", *plan, i, o.Err)
				}
			}
		}
	})

	t.Run("declined", func(t *testing.T) {
		spec := hw.Workstation(1, 0)
		// Stream buffers (BFS streams no RA) and room for one BFS WA, not two.
		spec.GPUs[0].DeviceMemory = 32*2*int64(sp.Config().PageSize) + 3*int64(sp.NumVertices())
		e, err := New(spec, sp, Options{CacheBytes: CacheDisabled})
		if err != nil {
			t.Fatal(err)
		}
		outs, _ := mustRunShared(t, e, []SharedJob{bfs(0), bfs(512)})
		if !outs[0].Declined || !outs[1].Declined {
			t.Errorf("two lanes: declined %v, %v", outs[0].Declined, outs[1].Declined)
		}
		if outs, _ := mustRunShared(t, e, []SharedJob{bfs(0)}); outs[0].Err != nil || outs[0].Declined {
			t.Errorf("one job: err %v, declined %v", outs[0].Err, outs[0].Declined)
		}
	})

	t.Run("admission-order", func(t *testing.T) {
		// Outcomes come back in job order, the out-of-range job's among them.
		jobs := []SharedJob{bfs(1836), bfs(0), bfs(sp.NumVertices() + 1), bfs(7), bfs(512)}
		outs, _ := mustRunShared(t, newEngine(t, sp, Options{}, 1, 0), jobs)
		if len(outs) != len(jobs) {
			t.Fatalf("%d outcomes for %d jobs", len(outs), len(jobs))
		}
		if !errors.Is(outs[2].Err, ErrSourceOutOfRange) {
			t.Errorf("the out-of-range job: err %v", outs[2].Err)
		}
		for _, i := range []int{0, 1, 3, 4} {
			if outs[i].Err != nil || outs[i].Declined {
				t.Fatalf("job %d: err %v, declined %v", i, outs[i].Err, outs[i].Declined)
			}
			wantBFS(t, fmt.Sprintf("job %d", i), g, jobs[i].Source, jobs[i].Kernel.(*kernels.BFS).Levels(outs[i].State))
		}
	})

	t.Run("no-machine", func(t *testing.T) {
		// Stream buffers that cannot fit: the run fails before it starts, and
		// every job handed to it carries the error.
		spec := hw.Workstation(1, 0)
		spec.GPUs[0].DeviceMemory = int64(sp.Config().PageSize)
		e, err := New(spec, sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs := []SharedJob{bfs(0), bfs(512), bfs(7)}
		outs, _, err := e.RunShared(jobs)
		if !errors.Is(err, ErrWontFit) || len(outs) != len(jobs) {
			t.Fatalf("RunShared: %d outcomes for %d jobs, err %v; want one each and ErrWontFit", len(outs), len(jobs), err)
		}
		for i, o := range outs {
			if o.Err != err {
				t.Errorf("job %d: err %v, want the run's", i, o.Err)
			}
		}
	})

	t.Run("run-fails", func(t *testing.T) {
		// The kernel panics at its sixth superstep: the run's error is the
		// job's.
		outs, _, err := newEngine(t, sp, Options{}, 1, 0).RunShared([]SharedJob{{Kernel: panicsAt{kernels.NewBFS(sp), 6}, Source: 1836}})
		if err == nil || !strings.Contains(err.Error(), "kernel fault") {
			t.Fatalf("RunShared err = %v, want the kernel's panic", err)
		}
		if len(outs) != 1 || outs[0].Err != err {
			t.Errorf("%d outcomes, the job carries %v; want the run's error", len(outs), outs[0].Err)
		}
	})
}

// TestSharedDeterminism: the same group replayed from scratch lands on the
// identical virtual makespan and accounting.
func TestSharedDeterminism(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	sources := bfsSources(8, sp.NumVertices())

	run := func() SharedStats {
		var jobs []SharedJob
		for _, s := range sources {
			jobs = append(jobs, SharedJob{Kernel: kernels.NewBFS(sp), Source: s})
		}
		_, stats := mustRunShared(t, newEngine(t, sp, Options{}, 1, 1), jobs)
		return stats
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("replay diverged:\n  a = %+v\n  b = %+v", a, b)
	}
}

// TestSharedEmitsWaveSpans: a job's own recorder carries a Wave span per
// superstep and one Run span; a multi-BFS roster records into the engine's
// recorder the same way, and a job of it may not bring its own.
func TestSharedEmitsWaveSpans(t *testing.T) {
	sp := buildPages(t, rmatGraph(t))
	count := func(rec *trace.Recorder, kind trace.Kind) int {
		n := 0
		for _, s := range rec.Spans() {
			if s.Kind == kind {
				n++
			}
		}
		return n
	}
	own, engine := trace.NewWithID("job"), trace.NewWithID("engine")
	e := newEngine(t, sp, Options{Trace: engine}, 1, 0)
	jobs := []SharedJob{{Kernel: kernels.NewBFS(sp), Source: 0}, {Kernel: kernels.NewBFS(sp), Source: 512}}
	for _, tc := range []struct {
		rec  *trace.Recorder
		jobs []SharedJob
	}{{own, []SharedJob{{Kernel: kernels.NewBFS(sp), Source: 0, Trace: own}}}, {engine, jobs}} {
		outs, stats := mustRunShared(t, e, tc.jobs)
		for i, o := range outs {
			if o.Err != nil {
				t.Fatalf("outcome %d: %v", i, o.Err)
			}
		}
		if got := count(tc.rec, trace.Wave); int64(got) != stats.Waves {
			t.Errorf("%s: %d wave spans for %d waves", tc.rec.ID(), got, stats.Waves)
		}
		if got := count(tc.rec, trace.Run); got != 1 {
			t.Errorf("%s: %d Run spans, want 1", tc.rec.ID(), got)
		}
	}
	jobs[1].Trace = own
	if _, _, err := e.RunShared(jobs); err == nil {
		t.Error("a multi-BFS job with a recorder of its own ran")
	}
}

// TestClosedRosterMemoryLayout pins the roster-first device-memory layout: a
// run allocates its stream buffers and every member's WA first and gives all
// the rest to the page cache. With device memory of half the topology plus
// 256 KB that cache holds the graph's 42 pages, so each streams once and
// every revisit hits; a cache of half that memory would be too small for
// PageRank's cyclic scan (210 streamed, 0 hits).
func TestClosedRosterMemoryLayout(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	spec := hw.Workstation(1, 0)
	spec.GPUs[0].DeviceMemory = sp.TopologyBytes()/2 + 256<<10
	for _, tc := range []struct {
		name           string
		k              kernels.Kernel
		streamed, hits int64
	}{
		{"PageRank", kernels.NewPageRank(sp, 0.85, 5), 42, 168},
		{"BFS", kernels.NewBFS(sp), 42, 70},
	} {
		e, err := New(spec, sp, Options{Streams: 4})
		if err != nil {
			t.Fatal(err)
		}
		rep := mustRun(t, e, tc.k, 7)
		if rep.PagesStreamed != tc.streamed || rep.CacheHits != tc.hits {
			t.Errorf("%s: streamed %d pages with %d cache hits, want %d and %d",
				tc.name, rep.PagesStreamed, rep.CacheHits, tc.streamed, tc.hits)
		}
	}
}

// TestWaveAllocBudget pins the cost of a wave past its first, in both halves
// of a run: once a warm-up has grown the wave table, planning a wave —
// listing its pages and running every kernel — and processing a page of it
// in the simulation allocate nothing: for PageRank, for a BFS, and for an
// 8-lane multi-source BFS.
func TestWaveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts")
	}
	sp := buildPages(t, rmatGraph(t))
	lanes := make([]*kernels.BFS, 8)
	for i := range lanes {
		lanes[i] = kernels.NewBFS(sp)
	}
	for _, tc := range []struct {
		name string
		job  SharedJob
	}{
		{"PageRank", SharedJob{Kernel: kernels.NewPageRank(sp, 0.85, 5)}},
		{"BFS", SharedJob{Kernel: kernels.NewBFS(sp)}},
		{"8-lane BFS", SharedJob{Kernel: kernels.NewMultiBFS(sp, lanes, make([]uint64, len(lanes)))}},
	} {
		// No device cache, so every wave takes the copy path, RA included.
		r, err := newEngine(t, sp, Options{CacheBytes: CacheDisabled}, 1, 0).newRun(tc.job)
		if err != nil {
			t.Fatal(err)
		}
		// The functional half steps on this goroutine, between the
		// simulation's turns: the two halves of one serial loop.
		w := new(wave)
		var allocs float64
		r.env.Process("alloc-budget", func(p *sim.Proc) {
			r.begin(p)
			r.pl.begin()
			r.pl.step(w)
			r.beginWave(w)
			r.streamDemand(p)
			r.endWave(p)
			r.pl.step(w)
			r.beginWave(w)
			allocs = testing.AllocsPerRun(20, func() {
				r.pl.planWave(w)
				r.processDemand(p, 0, 0, 0)
			})
		})
		if _, err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		if len(w.pids) == 0 || r.abort != nil {
			t.Fatalf("%s: %d pages in the wave, abort %v", tc.name, len(w.pids), r.abort)
		}
		if allocs > 0 {
			t.Errorf("%s: planning a wave and processing a page allocate %.1f objects, want 0", tc.name, allocs)
		}
	}
}

// TestWaveRunsPagesInPageOrder pins a wave as one pass in page order: on a
// graph whose large-page runs sit between small pages, one GPU with one
// stream launches each superstep's kernels in strictly ascending page ID —
// a large page takes its place among the small ones rather than waiting for
// them all.
func TestWaveRunsPagesInPageOrder(t *testing.T) {
	// Two hubs, each with an edge to every other vertex, in the middle of a
	// ring whose every vertex also points at the first hub: BFS from 0 meets
	// the first hub at level 1 and every other page, the second hub's
	// included, at level 2.
	const n, hubA, hubB = 2000, 500, 1500
	var edges []csr.Edge
	for v := uint32(0); v < n; v++ {
		edges = append(edges, csr.Edge{Src: v, Dst: (v + 1) % n}, csr.Edge{Src: v, Dst: hubA})
		if v != hubA {
			edges = append(edges, csr.Edge{Src: hubA, Dst: v})
		}
		if v != hubB {
			edges = append(edges, csr.Edge{Src: hubB, Dst: v})
		}
	}
	g, err := csr.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	sp := buildPages(t, g)
	// The layout the test needs: small, large, small, in page order.
	firstLP, lastSP := -1, -1
	for pid := range sp.NumPages() {
		switch kind := sp.Kind(slottedpage.PageID(pid)); {
		case kind == slottedpage.LargePage && firstLP < 0:
			firstLP = pid
		case kind == slottedpage.SmallPage:
			lastSP = pid
		}
	}
	if firstLP <= 0 || lastSP < firstLP {
		t.Fatalf("%d pages, first large page %d, last small page %d: want a large-page run between small pages",
			sp.NumPages(), firstLP, lastSP)
	}

	for _, k := range []kernels.Kernel{kernels.NewPageRank(sp, 0.85, 3), kernels.NewBFS(sp)} {
		rec := trace.New()
		mustRun(t, newEngine(t, sp, Options{Streams: 1, Trace: rec}, 1, 0), k, 0)
		last := map[int32]int64{} // superstep -> last kernel's page
		kernelsRun := 0
		for _, s := range rec.Spans() {
			if s.Kind != trace.Kernel {
				continue
			}
			if prev, ok := last[s.Level]; ok && s.Page <= prev {
				t.Fatalf("%T superstep %d: kernel on page %d after page %d, want ascending page IDs", k, s.Level, s.Page, prev)
			}
			last[s.Level] = s.Page
			kernelsRun++
		}
		if len(last) < 2 || kernelsRun <= sp.NumPages() {
			t.Errorf("%T: %d kernels over %d supersteps, want several supersteps covering the graph", k, kernelsRun, len(last))
		}
	}
}

// TestStreamsAskStorageInPageOrder pins idle-stream dispatch: a GPU's streams
// take its demand in page order, so a storage-bound scan reaches each device
// as the ascending read §4.1's striping is laid out for (a fixed stride per
// stream left 16 % of these reads sequential) — and how many streams share
// the scan never reaches the result bytes.
func TestStreamsAskStorageInPageOrder(t *testing.T) {
	ds, _ := graphgen.ByName("RMAT27")
	sp := buildPages(t, ds.MustGenerate(12)) // 705 pages: ~22 per stream
	kc := kernelCases()[2]                   // PageRank
	run := func(opts Options) []byte {
		// Fixed latencies scaled away, as on the benchmark's machine, so the
		// SSDs are the bottleneck and their queues stay full.
		opts.CacheBytes = sp.TopologyBytes() * 2 / 5
		e, err := New(hw.Workstation(1, 2).Scale(1024), sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		job := SharedJob{Kernel: kc.make(sp)}
		r, err := e.newRun(job)
		if err != nil {
			t.Fatal(err)
		}
		r.env.Process("gts-framework", r.loop)
		if _, err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		if r.abort != nil {
			t.Fatal(r.abort)
		}
		var reads, seq int64
		for _, dev := range r.machine.Storage.Devices {
			r, s := dev.Reads()
			reads, seq = reads+r, seq+s
		}
		if reads == 0 || seq*10 < reads*7 {
			t.Errorf("streams=%d: %d of %d storage reads sequential, want >= 70%%", opts.Streams, seq, reads)
		}
		return kc.enc(job.Kernel, r.pl.states[0])
	}
	if want, got := run(Options{Streams: 32}), run(Options{Streams: 1}); !bytes.Equal(got, want) {
		t.Error("streams=1: state differs from the 32-stream run")
	}
}
