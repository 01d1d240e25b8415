package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestSSSPStructure pins SSSP's work on the benchmark graph (RMAT27@11,
// 65 536 vertices) from two sources, on one GPU and on two under each
// strategy: levels, edges, updates, kernel time, pages per level and the
// distances' digest. The numbers were recorded when the frontier was an
// int32 level vector, so any encoding of it has to reproduce that kernel's
// page-order semantics exactly. Only WABytes, and the WA copies inside
// Elapsed, depend on the encoding.
func TestSSSPStructure(t *testing.T) {
	d, _ := graphgen.ByName("RMAT27")
	sp := buildPages(t, d.MustGenerate(11))
	nV := sp.NumVertices()
	const digest0 = "184357de9c77e6859c44070d0411add21ecab0ef835250cff31a7b19afa5d33b"
	const digest3 = "d7f71f644d91f6026670ff01a7878ee2a4e9028830596bd37d56b245606b7555"
	pins := []struct {
		source     uint64
		strategy   Strategy
		gpus       int
		levels     int32
		edges      int64
		updates    int64
		kernelTime sim.Time
		levelPages []int64
		digest     string
	}{
		{0, StrategyP, 1, 7, 1184458, 91511, 3983849, []int64{13, 1416, 20, 1, 0, 0, 0}, digest0},
		{0, StrategyP, 2, 7, 1296712, 121288, 4378867, []int64{13, 1416, 20, 1, 0, 0, 0}, digest0},
		{0, StrategyS, 2, 7, 2447999, 90586, 8247742, []int64{26, 2832, 42, 0, 0, 0, 0}, digest0},
		{nV / 3, StrategyP, 1, 9, 1201773, 98719, 4023231, []int64{1, 1, 406, 1040, 2, 0, 0, 0, 0}, digest3},
		{nV / 3, StrategyP, 2, 9, 1331490, 129350, 4486614, []int64{1, 1, 406, 1040, 2, 0, 0, 0, 0}, digest3},
		{nV / 3, StrategyS, 2, 9, 2466402, 96156, 8292270, []int64{2, 2, 812, 2080, 4, 0, 0, 0, 0}, digest3},
	}
	wantWA := int64(nV)*4 + 2*int64((nV+63)/64)*8
	for _, p := range pins {
		t.Run(fmt.Sprintf("src%d-%dgpu-%s", p.source, p.gpus, p.strategy), func(t *testing.T) {
			k := kernels.NewSSSP(sp)
			rep := mustRun(t, newEngine(t, sp, Options{Strategy: p.strategy}, p.gpus, 0), k, p.source)
			sum := sha256.Sum256(encodeVec(k.Distances(rep.State)))
			got := fmt.Sprint(rep.Levels, rep.EdgesTraversed, rep.Updates, rep.KernelTime)
			if want := fmt.Sprint(p.levels, p.edges, p.updates, p.kernelTime); got != want {
				t.Errorf("levels, edges, updates, kernel time = %s, want %s", got, want)
			}
			if !slices.Equal(rep.LevelPages, p.levelPages) {
				t.Errorf("LevelPages = %v, want %v", rep.LevelPages, p.levelPages)
			}
			if h := hex.EncodeToString(sum[:]); h != p.digest {
				t.Errorf("Dist digest %s, want %s", h, p.digest)
			}
			if rep.WABytes != wantWA {
				t.Errorf("WABytes = %d, want %d (4 B + 2 bits per vertex)", rep.WABytes, wantWA)
			}
		})
	}
}
