package experiments

import (
	"fmt"
	"math"
	"testing"

	gts "repro"
	"repro/internal/baselines/cpu"
	"repro/internal/kernels"
	"repro/internal/rmat"
	"repro/internal/slottedpage"
	"repro/internal/verify"
)

// TestDirOptRandomGraphsDifferential sweeps the direction-optimizing BFS
// over random R-MAT graphs with the same seed-rotated engine matrix as
// TestRandomGraphsDifferential: System.BFS must reproduce the paper's
// kernel's levels (RunKernel of kernels.BFS) exactly and agree with the
// Ligra CPU baseline, and SSSP must match the float64 reference oracle,
// clean and with fault injection armed (seed 2).
func TestDirOptRandomGraphsDifferential(t *testing.T) {
	ws := cpu.Paper()
	for _, seed := range []int64{1, 2, 3, 4} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			params := rmat.Default(7 + int(seed%2)) // 128 or 256 vertices
			params.Seed = seed
			g, err := rmat.Generate(params)
			if err != nil {
				t.Fatal(err)
			}
			rev := g.Transpose()
			sp, err := slottedpage.Build(g, slottedpage.ScaledConfig(2, 2, 1024))
			if err != nil {
				t.Fatal(err)
			}
			cfg := gts.Config{GPUs: 1 + int(seed%2)}
			if seed%4 == 3 {
				cfg.Strategy = gts.StrategyS
			}
			if seed == 2 {
				// Rates sit above the crosscheck template's: BFS and SSSP
				// stream far fewer pages than a PageRank sweep, so lower
				// rates can tick zero injections on a 128-vertex graph.
				cfg.Faults = &gts.FaultPlan{Seed: seed, TransferErrorRate: 0.10,
					CorruptionRate: 0.15, TransferStallRate: 0.10, StorageErrorRate: 0.10}
			}
			src := uint64(seed*31) % g.NumVertices()

			sys, err := gts.NewSystem(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The paper's kernel is the ground truth the direction-
			// optimizing run must match byte-for-byte.
			plain := kernels.NewBFS(sp)
			st, _, err := sys.RunKernel(plain, src)
			if err != nil {
				t.Fatal(err)
			}
			plainLevels := plain.Levels(st)
			plainSSSP, err := sys.SSSP(src)
			if err != nil {
				t.Fatal(err)
			}
			lig, err := cpu.NewLigra(ws).BFS(g, rev, uint32(src))
			if err != nil {
				t.Fatal(err)
			}
			wantD := verify.SSSP(g, uint32(src), kernels.Weight)

			bres, err := sys.BFS(src)
			if err != nil {
				t.Fatal(err)
			}
			for v := range plainLevels {
				if bres.Levels[v] != plainLevels[v] {
					t.Fatalf("BFS: vertex %d level = %d, plain kernel %d",
						v, bres.Levels[v], plainLevels[v])
				}
				if bres.Levels[v] != lig.Levels[v] {
					t.Fatalf("BFS: vertex %d level = %d, Ligra %d",
						v, bres.Levels[v], lig.Levels[v])
				}
			}
			if len(bres.LevelDirs) == 0 {
				t.Errorf("BFS: no direction schedule recorded")
			}

			for v, d := range plainSSSP.Dist {
				if math.IsInf(wantD[v], 1) {
					if d != math.MaxFloat32 {
						t.Fatalf("SSSP: vertex %d reachable (%v), want unreachable", v, d)
					}
				} else if float64(d) != wantD[v] {
					t.Fatalf("SSSP: vertex %d dist = %v, reference %v", v, d, wantD[v])
				}
			}
			if injected := bres.Faults.Injected() + plainSSSP.Faults.Injected(); seed == 2 && injected == 0 {
				t.Error("fault-armed seed injected nothing across the BFS and SSSP runs")
			}
		})
	}
}
