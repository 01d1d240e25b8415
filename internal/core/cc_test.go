package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/csr"
	"repro/internal/graphgen"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// syncCCIterations is how many iterations double-buffered label
// propagation takes on g: each one lowers every vertex to the least label
// its in- and out-neighbors held at the iteration's start, and the last one
// changes nothing.
func syncCCIterations(g *csr.Graph) int32 {
	n := g.NumVertices()
	prev, next := make([]uint32, n), make([]uint32, n)
	for v := range prev {
		prev[v] = uint32(v)
	}
	for it := int32(1); ; it++ {
		copy(next, prev)
		for u := uint32(0); uint64(u) < n; u++ {
			for _, v := range g.Out(u) {
				next[v] = min(next[v], prev[u])
				next[u] = min(next[u], prev[v])
			}
		}
		if slices.Equal(next, prev) {
			return it
		}
		prev, next = next, prev
	}
}

// TestInPlaceCC pins CC's one live label vector: on the RMAT fixture and
// three graphgen graphs, under one GPU, two GPUs with either strategy and
// the chaos fault plan, the labels are verify.WCC's, the run takes no more
// iterations than double-buffered propagation and reads the same Levels and
// Elapsed twice. The fixture's iteration counts are pinned: double-buffered
// propagation takes 4 there, so a kernel that reads the labels of the
// iteration before fails on one GPU, on two under Strategy-P and under
// faults.
func TestInPlaceCC(t *testing.T) {
	gen := func(name string, shrink int) *csr.Graph {
		d, _ := graphgen.ByName(name)
		return d.MustGenerate(shrink)
	}
	sparse, err := graphgen.Density(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *csr.Graph
		pin  map[string]int32 // Levels per configuration; nil: unpinned
	}{
		{"RMAT27@11", rmatGraph(t), map[string]int32{"1gpu": 3, "P-2gpu": 3, "S-2gpu": 4, "chaos": 3}},
		{"Twitter@15", gen("Twitter", 15), nil},
		{"YahooWeb@20", gen("YahooWeb", 20), nil},
		{"Density10x2", sparse, nil},
	}
	configs := []struct {
		name       string
		opts       Options
		gpus, ssds int
	}{
		{"1gpu", Options{}, 1, 0},
		{"P-2gpu", Options{Strategy: StrategyP}, 2, 0},
		{"S-2gpu", Options{Strategy: StrategyS}, 2, 0},
		{"chaos", Options{Faults: chaosPlan()}, 1, 1},
	}
	for _, gc := range graphs {
		sp := buildPages(t, gc.g)
		want, sync := verify.WCC(gc.g), syncCCIterations(gc.g)
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/%s", gc.name, cfg.name), func(t *testing.T) {
				var reps [2]*Report
				for i := range reps {
					k := kernels.NewCC(sp)
					reps[i] = mustRun(t, newEngine(t, sp, cfg.opts, cfg.gpus, cfg.ssds), k, 0)
					got := k.Components(reps[i].State)
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("run %d: vertex %d component = %d, want %d", i, v, got[v], want[v])
						}
					}
				}
				a, b := reps[0], reps[1]
				if a.Levels != b.Levels || a.Elapsed != b.Elapsed {
					t.Errorf("two runs: %d iterations in %v, then %d in %v", a.Levels, a.Elapsed, b.Levels, b.Elapsed)
				}
				if a.Levels > sync {
					t.Errorf("%d iterations, double-buffered propagation takes %d", a.Levels, sync)
				}
				if pin, ok := gc.pin[cfg.name]; ok && a.Levels != pin {
					t.Errorf("%d iterations, want %d (double-buffered: %d)", a.Levels, pin, sync)
				}
				t.Logf("%d iterations (double-buffered %d), %v", a.Levels, sync, a.Elapsed)
			})
		}
	}
}
