package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// kernelCase binds a kernel constructor to a deterministic byte encoding of
// its final state, so the serial and parallel paths can be compared
// bit-for-bit without reaching into kernel internals.
type kernelCase struct {
	name string
	make func(sp *slottedpage.Graph) kernels.Kernel
	enc  func(k kernels.Kernel, st kernels.State) []byte
}

func encodeVec(t any) []byte {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, t); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// kernelCases lists every built-in kernel: the gatherable ten plus SSSP,
// whose serial fallback must also be insensitive to HostWorkers.
func kernelCases() []kernelCase {
	return []kernelCase{
		{"BFS",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewBFS(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.BFS).Levels(st)) }},
		{"SSSP",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewSSSP(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.SSSP).Distances(st)) }},
		{"PageRank",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewPageRank(sp, 0.85, 5) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.PageRank).Ranks(st)) }},
		{"CC",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewCC(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.CC).Components(st)) }},
		{"BC",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewBC(sp) },
			func(k kernels.Kernel, st kernels.State) []byte {
				return encodeVec(k.(*kernels.BC).Centrality(st, 0))
			}},
		{"Neighborhood",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewNeighborhood(sp, 3) },
			func(k kernels.Kernel, st kernels.State) []byte {
				return encodeVec(k.(*kernels.Neighborhood).Members(st))
			}},
		{"CrossEdges",
			func(sp *slottedpage.Graph) kernels.Kernel {
				return kernels.NewCrossEdges(sp, func(v uint64) bool { return v%2 == 0 })
			},
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.CrossEdges).Total(st)) }},
		{"RWR",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewRWR(sp, 0.15, 5) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.RWR).Scores(st)) }},
		{"DegreeDist",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewDegreeDist(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.DegreeDist).Degrees(st)) }},
		{"KCore",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewKCore(sp, 3) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.KCore).InCore(st)) }},
		{"Radius",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewRadius(sp, 4, 8) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.Radius).Radii(st)) }},
		// The direction-optimizing frontier kernels, in every direction mode:
		// adaptive switching, forced push, and forced pull must each be
		// worker-count invariant (and, by TestDirOptMatchesPlainKernels,
		// agree with the plain kernels above).
		{"BFS-diropt",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewDirBFS(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.DirBFS).Levels(st)) }},
		{"BFS-diropt-push",
			func(sp *slottedpage.Graph) kernels.Kernel {
				k := kernels.NewDirBFS(sp)
				k.SetMode(kernels.DirForcePush)
				return k
			},
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.DirBFS).Levels(st)) }},
		{"BFS-diropt-pull",
			func(sp *slottedpage.Graph) kernels.Kernel {
				k := kernels.NewDirBFS(sp)
				k.SetMode(kernels.DirForcePull)
				return k
			},
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.DirBFS).Levels(st)) }},
		{"SSSP-delta",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewDeltaSSSP(sp) },
			func(k kernels.Kernel, st kernels.State) []byte {
				return encodeVec(k.(*kernels.DeltaSSSP).Distances(st))
			}},
	}
}

// TestDirOptMatchesPlainKernels pins the direction-optimizing kernels to
// their plain counterparts: DirBFS in every mode must reproduce BFS's
// levels byte-for-byte, and DeltaSSSP must reproduce SSSP's distances,
// at serial and parallel worker counts.
func TestDirOptMatchesPlainKernels(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	cases := kernelCases()
	pairs := []struct{ plain, diropt kernelCase }{
		{cases[0], cases[11]}, // BFS vs BFS-diropt
		{cases[0], cases[12]}, // BFS vs forced push
		{cases[0], cases[13]}, // BFS vs forced pull
		{cases[1], cases[14]}, // SSSP vs SSSP-delta
	}
	for _, p := range pairs {
		t.Run(p.diropt.name, func(t *testing.T) {
			want, _ := runDigest(t, sp, p.plain, Options{Source: 0, HostWorkers: 1}, 1, 0)
			for _, workers := range []int{1, 8} {
				got, _ := runDigest(t, sp, p.diropt, Options{Source: 0, HostWorkers: workers}, 1, 0)
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: %s state differs from %s", workers, p.diropt.name, p.plain.name)
				}
			}
		})
	}
}

// TestDirOptUnderChaos runs the adaptive kernels through the chaos fault
// plan: recovery replays must preserve both the values and the planned
// direction schedule across worker counts.
func TestDirOptUnderChaos(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	cases := kernelCases()
	for _, kc := range []kernelCase{cases[11], cases[14]} { // BFS-diropt, SSSP-delta
		t.Run(kc.name, func(t *testing.T) {
			base := Options{Source: 0, HostWorkers: 1, Faults: chaosPlan()}
			wantBytes, wantRep := runDigest(t, sp, kc, base, 2, 2)
			opts := base
			opts.HostWorkers = 8
			gotBytes, gotRep := runDigest(t, sp, kc, opts, 2, 2)
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Error("state not byte-identical to serial under faults")
			}
			sameRun(t, kc.name+" workers=8", wantRep, gotRep)
			if len(wantRep.LevelDirs) == 0 {
				t.Error("LevelDirs empty for a direction-planning kernel")
			}
			if fmt.Sprint(wantRep.LevelDirs) != fmt.Sprint(gotRep.LevelDirs) {
				t.Errorf("direction schedule differs: %v vs %v", wantRep.LevelDirs, gotRep.LevelDirs)
			}
		})
	}
}

// runDigest executes one kernel run and returns the encoded final state
// plus the Report, for cross-worker-count comparison.
func runDigest(t *testing.T, sp *slottedpage.Graph, kc kernelCase, opts Options, gpus, ssds int) ([]byte, *Report) {
	t.Helper()
	k := kc.make(sp)
	rep := mustRun(t, newEngine(t, sp, opts, gpus, ssds), k)
	return kc.enc(k, rep.State), rep
}

// sameRun asserts the deterministic Report fields match between a serial
// and a parallel execution: virtual time, traversal shape, data movement,
// update counts, and the fault/recovery tally must all be unaffected by
// host parallelism.
func sameRun(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.Elapsed != b.Elapsed {
		t.Errorf("%s: Elapsed %v vs %v", label, a.Elapsed, b.Elapsed)
	}
	if a.Levels != b.Levels {
		t.Errorf("%s: Levels %d vs %d", label, a.Levels, b.Levels)
	}
	if a.PagesStreamed != b.PagesStreamed {
		t.Errorf("%s: PagesStreamed %d vs %d", label, a.PagesStreamed, b.PagesStreamed)
	}
	if a.BytesToGPU != b.BytesToGPU {
		t.Errorf("%s: BytesToGPU %d vs %d", label, a.BytesToGPU, b.BytesToGPU)
	}
	if a.EdgesTraversed != b.EdgesTraversed {
		t.Errorf("%s: EdgesTraversed %d vs %d", label, a.EdgesTraversed, b.EdgesTraversed)
	}
	if a.Updates != b.Updates {
		t.Errorf("%s: Updates %d vs %d", label, a.Updates, b.Updates)
	}
	if a.Faults != b.Faults {
		t.Errorf("%s: Faults %+v vs %+v", label, a.Faults, b.Faults)
	}
}

// TestParallelMatchesSerialAllKernels is the tentpole's acceptance test:
// every kernel, run at HostWorkers=1 and HostWorkers=8, must produce
// byte-identical state and identical deterministic metrics. Run under
// `go test -race` this also exercises the gather pool for data races.
func TestParallelMatchesSerialAllKernels(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	for _, kc := range kernelCases() {
		kc := kc
		t.Run(kc.name, func(t *testing.T) {
			base := Options{Source: 0, HostWorkers: 1}
			wantBytes, wantRep := runDigest(t, sp, kc, base, 1, 0)
			for _, workers := range []int{2, minGatherWorkers, 8} {
				opts := base
				opts.HostWorkers = workers
				gotBytes, gotRep := runDigest(t, sp, kc, opts, 1, 0)
				label := fmt.Sprintf("%s workers=%d", kc.name, workers)
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Errorf("%s: state not byte-identical to serial", label)
				}
				sameRun(t, label, wantRep, gotRep)
			}
		})
	}
}

// TestParallelMatchesSerialAcrossConfigs widens the sweep for the two
// acceptance kernels (BFS, PageRank) over the strategy x GPU x storage
// matrix, with and without the chaos fault plan.
func TestParallelMatchesSerialAcrossConfigs(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	cases := kernelCases()
	acceptance := []kernelCase{cases[0], cases[2]} // BFS, PageRank
	for _, kc := range acceptance {
		for _, cfg := range configurations() {
			for _, plan := range []struct {
				name   string
				faults *fault.Plan
			}{{"clean", nil}, {"faulted", chaosPlan()}} {
				t.Run(fmt.Sprintf("%s/%s/%s", kc.name, cfg.name, plan.name), func(t *testing.T) {
					base := Options{Source: 0, Strategy: cfg.strategy, HostWorkers: 1, Faults: plan.faults}
					wantBytes, wantRep := runDigest(t, sp, kc, base, cfg.gpus, cfg.ssds)
					opts := base
					opts.HostWorkers = 8
					gotBytes, gotRep := runDigest(t, sp, kc, opts, cfg.gpus, cfg.ssds)
					if !bytes.Equal(gotBytes, wantBytes) {
						t.Errorf("state not byte-identical to serial")
					}
					sameRun(t, "workers=8", wantRep, gotRep)
				})
			}
		}
	}
}

// TestBCBackwardParallelMatchesSerial pins the backward-sweep gather path
// (RunSPBack with Args.Deferred, then ApplyBack) specifically, under faults, where the forward
// level sets replay in reverse.
func TestBCBackwardParallelMatchesSerial(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	kc := kernelCases()[4] // BC
	base := Options{Source: 0, HostWorkers: 1, Faults: chaosPlan()}
	wantBytes, wantRep := runDigest(t, sp, kc, base, 2, 2)
	opts := base
	opts.HostWorkers = 8
	gotBytes, gotRep := runDigest(t, sp, kc, opts, 2, 2)
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("BC centrality not byte-identical between worker counts")
	}
	sameRun(t, "BC workers=8", wantRep, gotRep)
}

// TestHostWorkersDefaultAndValidation: 0 defaults to GOMAXPROCS and lands
// in the report; out-of-range values are rejected at engine construction.
func TestHostWorkersDefaultAndValidation(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	k := kernels.NewBFS(sp)
	rep := mustRun(t, newEngine(t, sp, Options{Source: 0}, 1, 0), k)
	if rep.HostWorkers < 1 {
		t.Errorf("defaulted HostWorkers = %d, want >= 1", rep.HostWorkers)
	}
	if rep.HostKernelWall <= 0 {
		t.Errorf("HostKernelWall = %v, want > 0", rep.HostKernelWall)
	}
	if _, err := New(hw.Workstation(1, 0), sp, Options{HostWorkers: -1}); err == nil {
		t.Error("engine accepted HostWorkers = -1")
	}
	if _, err := New(hw.Workstation(1, 0), sp, Options{HostWorkers: 2000}); err == nil {
		t.Error("engine accepted HostWorkers = 2000")
	}
}
