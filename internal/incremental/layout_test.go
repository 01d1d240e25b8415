package incremental_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	gts "repro"
	"repro/internal/csr"
	"repro/internal/graphgen"
	"repro/internal/incremental"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// TestLayoutsAgree is the oracle for the entry loops that come in two
// forms: a (2,2) loop over 32-bit words and the general VID loop beside
// it. It builds one graph, with large-page runs, at (2,2), (2,4), (3,3) and
// (5,5), runs every kernel that owns or shares such a loop — PageRank, CC,
// SSSP, BFS, a 3-hop ball, direction-optimizing BFS, MultiBFS and, from a
// prior epoch missing every 16th edge, IncBFS and IncCC — and requires each output to be byte-identical in every layout
// (PageRank bit for bit) and to agree with internal/verify. A two-GPU
// Strategy-S run at (2,2), the one configuration whose owned range is not
// every vertex, must agree too.
func TestLayoutsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine kernels in five configurations")
	}
	d, _ := graphgen.ByName("RMAT27")
	g1 := d.MustGenerate(13)
	var kept []csr.Edge
	var ops []gts.EdgeOp
	for i, e := range g1.Edges() {
		if i%16 == 0 {
			ops = append(ops, gts.EdgeOp{Src: uint64(e.Src), Dst: uint64(e.Dst)})
		} else {
			kept = append(kept, e)
		}
	}
	g0 := csr.MustFromEdges(int(g1.NumVertices()), kept)
	// Eight sources with out-edges to follow, spread over the ID range.
	sources := make([]uint64, 8)
	for j := range sources {
		v := uint64(j)*g1.NumVertices()/8 + 1
		for g1.Degree(v) < 8 {
			v++
		}
		sources[j] = v
	}
	src := sources[0]
	wantLv := verify.BFS(g1, uint32(src))
	const hops = 3
	wantBall := make([]int16, len(wantLv))
	for v, l := range wantLv {
		wantBall[v] = l
		if l > hops {
			wantBall[v] = -1
		}
	}
	wantCC := verify.WCC(g1)
	wantPR := verify.PageRank(g1, 0.85, 5)
	wantSSSP := verify.SSSP(g1, uint32(src), kernels.Weight)

	var first map[string][]byte
	for _, c := range []struct {
		p, q     int
		gpus     int
		strategy gts.Strategy
	}{
		{2, 2, 1, gts.StrategyP},
		{2, 4, 1, gts.StrategyP},
		{3, 3, 1, gts.StrategyP},
		{5, 5, 1, gts.StrategyP},
		{2, 2, 2, gts.StrategyS},
	} {
		name := fmt.Sprintf("(%d,%d) %d GPU %v", c.p, c.q, c.gpus, c.strategy)
		g, err := gts.BuildGraph(g1, gts.ScaledPageConfig(c.p, c.q, 4096))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumLP() == 0 {
			t.Fatalf("%s: no large pages", name)
		}
		sys, err := gts.NewSystem(g, gts.Config{GPUs: c.gpus, Strategy: c.strategy})
		if err != nil {
			t.Fatal(err)
		}
		run := func(k gts.Kernel, source uint64) gts.KernelState {
			st, _, err := sys.RunKernel(k, source)
			if err != nil {
				t.Fatalf("%s: %T: %v", name, k, err)
			}
			return st
		}
		out := map[string]any{}
		levels := func(what string, got []int16, want []int16) {
			out[what] = got
			if i := cmpLevels(want, got); i >= 0 {
				t.Errorf("%s: %s: vertex %d at level %d, want %d", name, what, i, got[i], want[i])
			}
		}
		labels := func(what string, got []uint32) {
			out[what] = got
			if i := cmpLabels(wantCC, got); i >= 0 {
				t.Errorf("%s: %s: vertex %d labelled %d, want %d", name, what, i, got[i], wantCC[i])
			}
		}

		pr := kernels.NewPageRank(g, 0.85, 5)
		ranks := pr.Ranks(run(pr, 0))
		out["pagerank"] = ranks
		for v, want := range wantPR {
			if math.Abs(float64(ranks[v])-want) > 1e-4*want+1e-7 {
				t.Errorf("%s: pagerank: vertex %d ranked %v, want %v", name, v, ranks[v], want)
				break
			}
		}
		cc := kernels.NewCC(g)
		labels("cc", cc.Components(run(cc, 0)))
		sssp := kernels.NewSSSP(g)
		dist := sssp.Distances(run(sssp, src))
		out["sssp"] = dist
		for v, want := range wantSSSP {
			if math.IsInf(want, 1) && dist[v] != math.MaxFloat32 || !math.IsInf(want, 1) && float64(dist[v]) != want {
				t.Errorf("%s: sssp: vertex %d at %v, want %v", name, v, dist[v], want)
				break
			}
		}
		bfs := kernels.NewBFS(g)
		levels("bfs", bfs.Levels(run(bfs, src)), wantLv)
		ball := kernels.NewNeighborhood(g, hops)
		levels("ball", ball.Levels(run(ball, src)), wantBall)
		dir := kernels.NewDirBFS(g)
		levels("dirbfs", dir.Levels(run(dir, src)), wantLv)
		lanes := make([]*kernels.BFS, len(sources))
		for j := range lanes {
			lanes[j] = kernels.NewBFS(g)
		}
		multi := kernels.NewMultiBFS(g, lanes, sources)
		st := run(multi, sources[0])
		for j, lane := range lanes {
			lst, _ := multi.Lane(st, j)
			levels(fmt.Sprintf("multibfs lane %d", j), lane.Levels(lst), verify.BFS(g1, uint32(sources[j])))
		}
		kb, reason := incremental.PlanBFS(g, verify.BFS(g0, uint32(src)), ops)
		if reason != "" || kb.Seeds == 0 {
			t.Fatalf("%s: incremental bfs plan: reason %q, %d seeds", name, reason, kb.Seeds)
		}
		levels("incbfs", kb.Levels(run(kb, src)), wantLv)
		kc, reason := incremental.PlanCC(g, verify.WCC(g0), ops)
		if reason != "" || kc.Seeds == 0 {
			t.Fatalf("%s: incremental cc plan: reason %q, %d seeds", name, reason, kc.Seeds)
		}
		labels("inccc", kc.Components(run(kc, 0)))

		enc := map[string][]byte{}
		for what, v := range out {
			var b bytes.Buffer
			if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
			enc[what] = b.Bytes()
		}
		if first == nil {
			first = enc
			continue
		}
		for what, b := range enc {
			if !bytes.Equal(b, first[what]) {
				t.Errorf("%s: %s differs from (2,2)'s", name, what)
			}
		}
	}
}
