package verify

import (
	"math"
	"testing"

	"repro/internal/graphgen"
)

func TestBFSOnPath(t *testing.T) {
	g := graphgen.Path(5)
	lv := BFS(g, 1)
	want := []int16{-1, 0, 1, 2, 3}
	for i, w := range want {
		if lv[i] != w {
			t.Errorf("lv[%d] = %d, want %d", i, lv[i], w)
		}
	}
}

// TestBFSRefusesPastTheEngineBound: a chain whose tail lies at level 32000
// is the deepest the engine answers, and BFS answers it too; one vertex
// more and both refuse. (BFS used to wrap its int16 levels: the tail of a
// 33 000-vertex chain came back at level −32 537.)
func TestBFSRefusesPastTheEngineBound(t *testing.T) {
	if lv := BFS(graphgen.Path(maxLevel+1), 0); lv[maxLevel] != maxLevel {
		t.Fatalf("tail of a %d-vertex chain at level %d, want %d", maxLevel+1, lv[maxLevel], maxLevel)
	}
	for _, n := range []int{maxLevel + 2, 33000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BFS answered on a %d-vertex chain", n)
				}
			}()
			BFS(graphgen.Path(n), 0)
		}()
	}
}

func TestBFSOnStar(t *testing.T) {
	g := graphgen.Star(6)
	lv := BFS(g, 0)
	if lv[0] != 0 {
		t.Error("source level")
	}
	for i := 1; i < 6; i++ {
		if lv[i] != 1 {
			t.Errorf("spoke %d level = %d", i, lv[i])
		}
	}
}

func TestPageRankSumsToOneOnCycle(t *testing.T) {
	// On a cycle there are no dangling vertices, so mass is conserved.
	g := graphgen.Cycle(10)
	pr := PageRank(g, 0.85, 20)
	var sum float64
	for _, v := range pr {
		sum += v
		// Symmetry: every vertex has the same rank.
		if math.Abs(v-0.1) > 1e-12 {
			t.Errorf("rank %v, want 0.1", v)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %v", sum)
	}
}

func TestPageRankStarConcentratesOnSpokes(t *testing.T) {
	g := graphgen.Star(5)
	pr := PageRank(g, 0.85, 10)
	for i := 1; i < 5; i++ {
		if pr[i] <= pr[0] {
			t.Errorf("spoke %d rank %v not above hub %v", i, pr[i], pr[0])
		}
	}
}

func TestSSSPOnPathUnitWeights(t *testing.T) {
	g := graphgen.Path(6)
	unit := func(u, v uint64) float32 { return 1 }
	d := SSSP(g, 0, unit)
	for i := 0; i < 6; i++ {
		if d[i] != float64(i) {
			t.Errorf("d[%d] = %v", i, d[i])
		}
	}
}

func TestSSSPPicksCheaperRoute(t *testing.T) {
	// 0->1->2 (cost 1+1) vs 0->2 (cost 10).
	g := graphgen.Complete(3)
	w := func(u, v uint64) float32 {
		if u == 0 && v == 2 {
			return 10
		}
		return 1
	}
	d := SSSP(g, 0, w)
	if d[2] != 2 {
		t.Errorf("d[2] = %v, want 2", d[2])
	}
}

func TestSSSPUnreachableIsInf(t *testing.T) {
	g := graphgen.Path(3) // directed: 2 cannot reach 0
	d := SSSP(g, 2, func(u, v uint64) float32 { return 1 })
	if !math.IsInf(d[0], 1) {
		t.Errorf("d[0] = %v, want +Inf", d[0])
	}
}

func TestWCCTwoComponents(t *testing.T) {
	g := graphgen.Path(4) // 0-1-2-3 one component
	labels := WCC(g)
	for i := 0; i < 4; i++ {
		if labels[i] != 0 {
			t.Errorf("label[%d] = %d", i, labels[i])
		}
	}
	// A graph of two disjoint edges.
	g2 := graphgen.Grid(1, 2) // 0-1
	_ = g2
	labels2 := WCC(graphgen.Path(2))
	if labels2[0] != 0 || labels2[1] != 0 {
		t.Error("single edge component broken")
	}
}

func TestWCCDirectionIgnored(t *testing.T) {
	// Directed path: WCC must still treat it as one component.
	g := graphgen.Path(10)
	labels := WCC(g)
	for i, l := range labels {
		if l != 0 {
			t.Errorf("label[%d] = %d", i, l)
		}
	}
}

func TestBCOnPath(t *testing.T) {
	// Path 0->1->2->3: from source 0, delta(1) = 2 (broker for 2,3),
	// delta(2) = 1, delta(3) = 0.
	g := graphgen.Path(4)
	bc := BC(g, 0)
	want := []float64{0, 2, 1, 0}
	for i, w := range want {
		if math.Abs(bc[i]-w) > 1e-12 {
			t.Errorf("bc[%d] = %v, want %v", i, bc[i], w)
		}
	}
}

func TestBCOnDiamond(t *testing.T) {
	// 0->1, 0->2, 1->3, 2->3: two shortest paths to 3, each middle vertex
	// carries half.
	g := graphgen.Grid(2, 2)
	bc := BC(g, 0)
	if math.Abs(bc[1]-0.5) > 1e-12 || math.Abs(bc[2]-0.5) > 1e-12 {
		t.Errorf("bc = %v", bc)
	}
	if bc[0] != 0 || bc[3] != 0 {
		t.Errorf("endpoints must be 0: %v", bc)
	}
}

func TestReferenceAlgorithmsOnRMAT(t *testing.T) {
	// Smoke: the references terminate and produce sane output on a skewed
	// graph.
	d, _ := graphgen.ByName("RMAT27")
	g := d.MustGenerate(17) // scale 10
	lv := BFS(g, 0)
	reached := 0
	for _, l := range lv {
		if l >= 0 {
			reached++
		}
	}
	if reached < 2 {
		t.Error("BFS reached almost nothing")
	}
	pr := PageRank(g, 0.85, 5)
	var sum float64
	for _, v := range pr {
		if v < 0 {
			t.Fatal("negative rank")
		}
		sum += v
	}
	if sum <= 0 || sum > 1.0001 {
		t.Errorf("rank mass = %v", sum)
	}
}

func TestRWRMassConservedOnCycle(t *testing.T) {
	g := graphgen.Cycle(8)
	scores := RWR(g, 0, 0.15, 30)
	var sum float64
	for _, s := range scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mass = %v", sum)
	}
	// Proximity decays with distance from the source around the cycle.
	if !(scores[0] > scores[1] && scores[1] > scores[2]) {
		t.Errorf("scores not decaying: %v", scores[:4])
	}
}

func TestRWRSourceDominates(t *testing.T) {
	d, _ := graphgen.ByName("RMAT27")
	g := d.MustGenerate(27 - 10)
	scores := RWR(g, 5, 0.15, 10)
	for v, s := range scores {
		if uint32(v) != 5 && s > scores[5] {
			t.Fatalf("vertex %d (%v) outranks the source (%v)", v, s, scores[5])
		}
	}
}

func TestKCorePeeling(t *testing.T) {
	// Every vertex of a 4-clique survives the 2-core.
	g := graphgen.Complete(4)
	all := KCore(g, 2)
	for v := 0; v < 4; v++ {
		if !all[v] {
			t.Errorf("clique vertex %d peeled from 2-core", v)
		}
	}
	// On a path, the 2-core is empty (endpoints peel, then everything).
	p := KCore(graphgen.Path(10), 2)
	for v, a := range p {
		if a {
			t.Errorf("path vertex %d survived the 2-core", v)
		}
	}
	// The 1-core of a path keeps everything.
	p1 := KCore(graphgen.Path(10), 1)
	for v, a := range p1 {
		if !a {
			t.Errorf("path vertex %d peeled from 1-core", v)
		}
	}
}
