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

// mustRunShared runs a group that must run and returns its outcomes, in
// job order.
func mustRunShared(t *testing.T, e *Engine, jobs []SharedJob) ([]SharedOutcome, SharedStats) {
	t.Helper()
	outs, stats, err := e.RunShared(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return outs, stats
}

// RunJob is itself a wave group of one, so "matches the solo run" would
// compare the engine with itself. The group tests below take their expected
// results from oracles that share no code with the engine: the checked-in
// golden.json digests (pinned before the engines were merged) and the
// sequential references in internal/verify.

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

// TestSharedMatchesSoloAllKernels is the engine's acceptance test: a mixed
// wave group running every built-in kernel at once must leave each member's
// final state byte-identical to the kernel's pinned digest, and do exactly
// the functional work the kernel does alone — topology sharing perturbs
// virtual timing only, never results.
func TestSharedMatchesSoloAllKernels(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	cases := kernelCases()
	opts := Options{}

	var jobs []SharedJob
	made := make([]kernels.Kernel, len(cases))
	for i, kc := range cases {
		made[i] = kc.make(sp)
		jobs = append(jobs, SharedJob{Kernel: made[i], Source: 0})
	}
	outs, stats := mustRunShared(t, newEngine(t, sp, opts, 1, 0), jobs)
	if stats.Waves == 0 {
		t.Fatal("no waves executed")
	}
	for i, kc := range cases {
		if outs[i].Err != nil || outs[i].Declined {
			t.Fatalf("%s: outcome err=%v declined=%v", kc.name, outs[i].Err, outs[i].Declined)
		}
		wantGolden(t, kc, made[i], outs[i].Report.State)
		_, soloRep := runDigest(t, sp, kc, opts, 1, 0)
		if outs[i].Report.Levels != soloRep.Levels {
			t.Errorf("%s: Levels = %d, solo %d", kc.name, outs[i].Report.Levels, soloRep.Levels)
		}
		if outs[i].Report.EdgesTraversed != soloRep.EdgesTraversed {
			t.Errorf("%s: EdgesTraversed = %d, solo %d", kc.name, outs[i].Report.EdgesTraversed, soloRep.EdgesTraversed)
		}
		if outs[i].Report.Updates != soloRep.Updates {
			t.Errorf("%s: Updates = %d, solo %d", kc.name, outs[i].Report.Updates, soloRep.Updates)
		}
	}
	// Mixed algorithms still share: at least some page copies must have
	// served more than one member.
	if stats.BytesSaved <= 0 || stats.Servings <= stats.PageCopies {
		t.Errorf("mixed group recorded no shared page copies: %d bytes saved, %d servings of %d copies",
			stats.BytesSaved, stats.Servings, stats.PageCopies)
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

// TestSharedFaultedMatchesClean: members with per-member chaos plans must
// produce results byte-identical to a clean shared run, and both must equal
// the reference traversals.
func TestSharedFaultedMatchesClean(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	sources := []uint64{0, 512, 1024, 1536}

	run := func(withFaults bool) ([][]int16, SharedStats) {
		var jobs []SharedJob
		made := make([]*kernels.BFS, len(sources))
		for i, s := range sources {
			made[i] = kernels.NewBFS(sp)
			j := SharedJob{Kernel: made[i], Source: s}
			if withFaults {
				plan := chaosPlan()
				plan.Seed = int64(100 + i) // distinct fault sequences per member
				j.Faults = plan
			}
			jobs = append(jobs, j)
		}
		outs, stats := mustRunShared(t, newEngine(t, sp, Options{}, 1, 1), jobs)
		res := make([][]int16, len(sources))
		for i := range sources {
			if outs[i].Err != nil {
				t.Fatalf("job %d: %v", i, outs[i].Err)
			}
			res[i] = append([]int16(nil), made[i].Levels(outs[i].Report.State)...)
			if withFaults && outs[i].Report.Faults.Injected() == 0 && i == 0 {
				t.Log("note: member 0 drew no injections (rates are low)")
			}
		}
		return res, stats
	}

	clean, _ := run(false)
	faulted, _ := run(true)
	for i := range sources {
		if !bytes.Equal(encodeVec(clean[i]), encodeVec(faulted[i])) {
			t.Errorf("member %d: faulted shared run differs from clean shared run", i)
		}
	}
	for i, s := range sources {
		wantBFS(t, "clean group member", g, s, clean[i])
	}
}

// TestSharedFaultedMemberDoesNotStallGroup: a member whose storage reads
// always corrupt exhausts its retry budget and aborts, but the next live
// demander of each page takes over the copy with a fresh budget, so the
// rest of the group completes and matches the reference.
func TestSharedFaultedMemberDoesNotStallGroup(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	poison := &fault.Plan{Seed: 7, CorruptionRate: 1}

	// The poisoned member joins FIRST, so it is the issuer for every page
	// the group demands at wave 1 until it aborts.
	jobs := []SharedJob{
		{Kernel: kernels.NewBFS(sp), Source: 0, Faults: poison},
		{Kernel: kernels.NewBFS(sp), Source: 0},
		{Kernel: kernels.NewBFS(sp), Source: 512},
	}
	outs, stats := mustRunShared(t, newEngine(t, sp, Options{}, 1, 1), jobs)

	if outs[0].Err == nil {
		t.Fatal("poisoned member did not fail")
	}
	if !errors.Is(outs[0].Err, ErrHardwareFault) {
		t.Fatalf("poisoned member error = %v, want ErrHardwareFault", outs[0].Err)
	}
	for i := 1; i < 3; i++ {
		if outs[i].Err != nil || outs[i].Declined {
			t.Fatalf("survivor %d: err=%v declined=%v", i, outs[i].Err, outs[i].Declined)
		}
	}
	for i, src := range []uint64{0, 512} {
		wantBFS(t, "survivor", g, src, jobs[i+1].Kernel.(*kernels.BFS).Levels(outs[i+1].Report.State))
	}
	if stats.Elapsed <= 0 {
		t.Error("group made no progress")
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
// multiple GPUs and storage, a wave group's members must match the
// references, and a member's bytes must not depend on who shares its waves.
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
			bfs := kernels.NewBFS(sp)
			pr := kernels.NewPageRank(sp, 0.85, 5)
			outs, _ := mustRunShared(t, newEngine(t, sp, opts, cfg.gpus, cfg.ssds), []SharedJob{
				{Kernel: bfs, Source: 0},
				{Kernel: pr, Source: 0},
			})
			for i, o := range outs {
				if o.Err != nil || o.Declined {
					t.Fatalf("outcome %d: err=%v declined=%v", i, o.Err, o.Declined)
				}
			}
			wantBFS(t, "BFS member", g, 0, bfs.Levels(outs[0].Report.State))
			wantPageRank(t, "PageRank member", g, 5, pr.Ranks(outs[1].Report.State))
			alone := kernels.NewPageRank(sp, 0.85, 5)
			rep := mustRun(t, newEngine(t, sp, opts, cfg.gpus, cfg.ssds), alone, 0)
			if !bytes.Equal(encodeVec(pr.Ranks(outs[1].Report.State)), encodeVec(alone.Ranks(rep.State))) {
				t.Error("PageRank's bytes changed with the company it kept")
			}
		})
	}
}

// TestSharedDeclineWhenWAWontFit: when a member's WA cannot fit beside the
// members enrolled before it, it is declined (to be re-run on a machine of
// its own) rather than sinking the group.
func TestSharedDeclineWhenWAWontFit(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	pageSize := int64(sp.Config().PageSize)

	probe := kernels.NewPageRank(sp, 0.85, 5)
	st := probe.NewState()
	probe.Init(st, 0)
	wa := st.WABytes()

	raBuf := int64(sp.Config().MaxSlotsPerPage()) * kernels.RAPerVertex(probe)
	bufBytes := 1 * (2*pageSize + raBuf) // Streams: 1 below
	spec := hw.Workstation(1, 0)
	spec.GPUs[0].DeviceMemory = bufBytes + 2*wa + wa/2 // room for two WAs, not three

	e, err := New(spec, sp, Options{Streams: 1, CacheBytes: CacheDisabled})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []SharedJob{
		{Kernel: kernels.NewPageRank(sp, 0.85, 5), Source: 0},
		{Kernel: kernels.NewPageRank(sp, 0.85, 5), Source: 0},
		{Kernel: kernels.NewPageRank(sp, 0.85, 5), Source: 0},
	}
	outs, _ := mustRunShared(t, e, jobs)
	if outs[0].Err != nil || outs[1].Err != nil {
		t.Fatalf("fitting members failed: %v / %v", outs[0].Err, outs[1].Err)
	}
	if !outs[2].Declined {
		t.Fatalf("third member not declined: %+v", outs[2])
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
// however the job left its group: finished, malformed at enrolment, aborted during its WA upload
// or on its fault budget mid-run, declined, or still riding when the run
// itself fails, which gives its error to the jobs it had not settled.
func TestSharedOutcomes(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	bfs := func(src uint64) SharedJob { return SharedJob{Kernel: kernels.NewBFS(sp), Source: src} }

	t.Run("finished-malformed-aborted", func(t *testing.T) {
		// The mid-run abort joins first, so it pays for the pages it reads.
		midRun, upload := bfs(0), bfs(512)
		midRun.Faults = &fault.Plan{Seed: 7, CorruptionRate: 1}
		upload.Faults = &fault.Plan{Seed: 3, TransferErrorRate: 1}
		jobs := []SharedJob{midRun, bfs(0), {Source: 1}, bfs(sp.NumVertices()), upload}
		outs, _ := mustRunShared(t, newEngine(t, sp, Options{}, 1, 1), jobs)
		if len(outs) != len(jobs) {
			t.Fatalf("%d outcomes for %d jobs", len(outs), len(jobs))
		}
		if outs[1].Err != nil || outs[1].Levels == 0 {
			t.Errorf("finished job: err %v after %d levels", outs[1].Err, outs[1].Levels)
		}
		if outs[2].Err == nil || !errors.Is(outs[3].Err, ErrSourceOutOfRange) {
			t.Errorf("malformed jobs: %v, %v", outs[2].Err, outs[3].Err)
		}
		for _, i := range []int{0, 4} {
			if !errors.Is(outs[i].Err, ErrHardwareFault) {
				t.Errorf("job %d: err %v, want ErrHardwareFault", i, outs[i].Err)
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
		if outs[0].Err != nil || !outs[1].Declined {
			t.Errorf("outcomes: err %v, declined %v", outs[0].Err, outs[1].Declined)
		}
	})

	t.Run("admission-order", func(t *testing.T) {
		// A closed roster admits its jobs in job order. Room for the BFS
		// stream buffers and four BFS WAs: SSSP, whose WA is four BFS WAs,
		// is declined behind the first two BFS, and the two BFS after it
		// still enrol.
		spec := hw.Workstation(1, 0)
		spec.GPUs[0].DeviceMemory = 32*2*int64(sp.Config().PageSize) + 8*int64(sp.NumVertices())
		e, err := New(spec, sp, Options{CacheBytes: CacheDisabled})
		if err != nil {
			t.Fatal(err)
		}
		jobs := []SharedJob{bfs(0), bfs(512), {Kernel: kernels.NewSSSP(sp)}, {Source: 1}, bfs(1836), bfs(7)}
		outs, _ := mustRunShared(t, e, jobs)
		if len(outs) != len(jobs) {
			t.Fatalf("%d outcomes for %d jobs", len(outs), len(jobs))
		}
		if !outs[2].Declined || outs[2].Err != nil {
			t.Errorf("SSSP: declined %v, err %v; want declined", outs[2].Declined, outs[2].Err)
		}
		if outs[3].Err == nil || outs[3].Declined {
			t.Errorf("the kernel-less job: err %v, declined %v; want an error", outs[3].Err, outs[3].Declined)
		}
		for _, i := range []int{0, 1, 4, 5} {
			if outs[i].Err != nil || outs[i].Declined {
				t.Fatalf("job %d: err %v, declined %v", i, outs[i].Err, outs[i].Declined)
			}
			wantBFS(t, fmt.Sprintf("job %d", i), g, jobs[i].Source, jobs[i].Kernel.(*kernels.BFS).Levels(outs[i].State))
		}
	})

	t.Run("no-machine", func(t *testing.T) {
		// Stream buffers that cannot fit: the run fails before it enrolls
		// anyone, and every job handed to it carries the error.
		spec := hw.Workstation(1, 0)
		spec.GPUs[0].DeviceMemory = int64(sp.Config().PageSize)
		e, err := New(spec, sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs := []SharedJob{bfs(0), bfs(512), {Kernel: kernels.NewPageRank(sp, 0.85, 5)}}
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

	t.Run("run-fails-after-a-delivery", func(t *testing.T) {
		// Source 0 finishes within five levels; the members from 1836 run
		// seven, and one's kernel panics at its sixth.
		jobs := []SharedJob{bfs(0), {Kernel: panicsAt{kernels.NewBFS(sp), 6}, Source: 1836}, bfs(1836)}
		outs, _, err := newEngine(t, sp, Options{}, 1, 0).RunShared(jobs)
		if err == nil || !strings.Contains(err.Error(), "kernel fault") {
			t.Fatalf("RunShared err = %v, want the kernel's panic", err)
		}
		if len(outs) != len(jobs) {
			t.Fatalf("%d outcomes for %d jobs", len(outs), len(jobs))
		}
		if outs[0].Err != nil {
			t.Errorf("the member that left before the failure carries %v", outs[0].Err)
		}
		wantBFS(t, "early leaver", g, 0, jobs[0].Kernel.(*kernels.BFS).Levels(outs[0].State))
		for i := 1; i < 3; i++ {
			if outs[i].Err != err {
				t.Errorf("job %d carries %v, want the run's error", i, outs[i].Err)
			}
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

// TestSharedEmitsWaveSpans: per-member recorders carry the Wave and
// SharedCopy span kinds.
func TestSharedEmitsWaveSpans(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	rec0 := trace.NewWithID("member0")
	rec1 := trace.NewWithID("member1")
	jobs := []SharedJob{
		{Kernel: kernels.NewBFS(sp), Source: 0, Trace: rec0},
		{Kernel: kernels.NewBFS(sp), Source: 512, Trace: rec1},
	}
	outs, stats := mustRunShared(t, newEngine(t, sp, Options{}, 1, 0), jobs)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
	}
	count := func(rec *trace.Recorder, kind trace.Kind) int {
		n := 0
		for _, s := range rec.Spans() {
			if s.Kind == kind {
				n++
			}
		}
		return n
	}
	if count(rec0, trace.Wave) == 0 {
		t.Error("member 0 recorded no wave spans")
	}
	if stats.BytesSaved > 0 && count(rec0, trace.SharedCopy)+count(rec1, trace.SharedCopy) == 0 {
		t.Error("shared copies happened but no SharedCopy spans recorded")
	}
	if count(rec0, trace.Run) != 1 {
		t.Errorf("member 0 Run spans = %d, want 1", count(rec0, trace.Run))
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

// TestWaveAllocBudget pins the cost of a wave past its first: once a warm-up
// has grown the driver's demand table and the members' result slices (and,
// for BFS members, met the first shared page), planning a wave — building
// the demand table and running every kernel — and processing a page of it
// allocate nothing: for a group of one, which is every RunJob, for eight scans,
// and for eight BFS twins sharing every page through the group kernel.
func TestWaveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation perturbs allocation counts")
	}
	g := rmatGraph(t)
	sp := buildPages(t, g)
	for _, tc := range []struct {
		name    string
		members int
		kernel  func() kernels.Kernel
	}{
		{"1 PageRank", 1, func() kernels.Kernel { return kernels.NewPageRank(sp, 0.85, 5) }},
		{"8 PageRank", 8, func() kernels.Kernel { return kernels.NewPageRank(sp, 0.85, 5) }},
		{"8 BFS", 8, func() kernels.Kernel { return kernels.NewBFS(sp) }},
	} {
		// No device cache, so every wave takes the copy path, RA included.
		e := newEngine(t, sp, Options{CacheBytes: CacheDisabled}, 1, 0)
		var jobs []SharedJob
		for i := 0; i < tc.members; i++ {
			jobs = append(jobs, SharedJob{Kernel: tc.kernel()})
		}
		d, err := e.newDriver(jobs)
		if err != nil {
			t.Fatal(err)
		}
		var allocs float64
		d.env.Process("alloc-budget", func(p *sim.Proc) {
			for _, m := range d.active {
				d.beginMember(p, m)
			}
			for _, m := range d.active {
				d.beginWave(m)
			}
			d.planWave()
			d.streamDemand(p)
			for _, m := range d.active {
				d.endWave(p, m)
			}
			for _, m := range d.active {
				d.beginWave(m)
			}
			allocs = testing.AllocsPerRun(20, func() {
				d.planWave()
				d.processDemand(p, 0, 0, 0)
			})
		})
		if _, err := d.env.Run(); err != nil {
			t.Fatal(err)
		}
		if len(d.active) != tc.members || len(d.pids) == 0 || len(d.dem) != tc.members*len(d.pids) {
			t.Fatalf("%s: %d active, %d claims on %d pages", tc.name, len(d.active), len(d.dem), len(d.pids))
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
		d, err := e.newDriver([]SharedJob{job})
		if err != nil {
			t.Fatal(err)
		}
		d.env.Process("gts-framework", d.loop)
		if _, err := d.env.Run(); err != nil {
			t.Fatal(err)
		}
		out := d.outs[0]
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		var reads, seq int64
		for _, dev := range d.machine.Storage.Devices {
			r, s := dev.Reads()
			reads, seq = reads+r, seq+s
		}
		if reads == 0 || seq*10 < reads*7 {
			t.Errorf("streams=%d: %d of %d storage reads sequential, want >= 70%%", opts.Streams, seq, reads)
		}
		return kc.enc(job.Kernel, out.State)
	}
	if want, got := run(Options{Streams: 32}), run(Options{Streams: 1}); !bytes.Equal(got, want) {
		t.Error("streams=1: state differs from the 32-stream run")
	}
}
