package kernels

import (
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/csr"
	"repro/internal/graphgen"
	"repro/internal/slottedpage"
	"repro/internal/verify"
)

// drive is a minimal sequential implementation of the GTS framework loop
// (Algorithm 1) with no hardware model: it exists so the kernels are tested
// independently of internal/core — two separate drivers agreeing with the
// references pins both.
//
// A traversal plans every level where the engine does: level 0 after Init,
// each later one after the level before it, an empty plan ending the
// forward phase; a backward sweep re-plans each forward level, deepest
// first.
func drive(t testing.TB, k Kernel, g *slottedpage.Graph, source uint64) State {
	st, _ := driveCount(t, k, g, source)
	return st
}

// driveCount is drive that also returns the run's summed Result.Edges.
func driveCount(t testing.TB, k Kernel, g *slottedpage.Graph, source uint64) (State, int64) {
	t.Helper()
	var edges int64
	st := k.NewState()
	k.Init(st, source)
	sts := []State{st}
	numPages := g.NumPages()
	scan, isScan := k.(ScanKernel)
	fk, isTraversal := k.(FrontierKernel)
	if !isScan && !isTraversal {
		t.Fatalf("%T neither scans nor plans its levels", k)
	}

	next := bitset.New(numPages)
	plan := func(level int32) bool {
		fk.PlanLevel(sts, level, next)
		return next.Any()
	}
	if isScan {
		for i := 0; i < numPages; i++ {
			next.Set(i)
		}
	} else {
		plan(0)
	}

	runLevel := func(level int32, backward bool) bool {
		active := false
		next.ForEach(func(pid int) {
			a := &Args{
				Graph:   g,
				PID:     slottedpage.PageID(pid),
				Page:    g.Page(slottedpage.PageID(pid)),
				State:   st,
				Level:   level,
				OwnedLo: 0, OwnedHi: g.NumVertices(),
				Tech: EdgeCentric,
			}
			var res Result
			if backward {
				res = k.(BackwardKernel).RunBack(a)
			} else {
				res = k.Run(a)
			}
			if res.Active {
				active = true
			}
			edges += res.Edges
			if res.Cycles < 0 {
				t.Fatalf("negative cycles from %T on page %d", k, pid)
			}
		})
		return active
	}

	var level int32
	for {
		BeginLevel(k, sts, level)
		active := runLevel(level, false)
		level++
		if isScan && !scan.EndIteration(sts, active) || !isScan && !plan(level) {
			break
		}
		if level > 30000 {
			t.Fatal("driver did not converge")
		}
	}
	if _, ok := k.(BackwardKernel); ok {
		for l := level - 1; l >= 0; l-- {
			plan(l)
			BeginLevel(k, sts, l)
			runLevel(l, true)
		}
	}
	return st, edges
}

func driverGraph(t *testing.T) (*csr.Graph, *slottedpage.Graph) {
	t.Helper()
	d, _ := graphgen.ByName("RMAT27")
	g := d.MustGenerate(27 - 11)
	sp, err := slottedpage.Build(g, slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	return g, sp
}

func TestDriverBFS(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewBFS(sp)
	st := drive(t, k, sp, 0)
	want := verify.BFS(g, 0)
	got := k.Levels(st)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d level = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestDriverPageRank(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewPageRank(sp, 0.85, 5)
	st := drive(t, k, sp, 0)
	want := verify.PageRank(g, 0.85, 5)
	got := k.Ranks(st)
	for v := range want {
		if math.Abs(float64(got[v])-want[v]) > 1e-4*math.Max(want[v], 1e-9)+1e-7 {
			t.Fatalf("vertex %d rank = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestDriverSSSP(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewSSSP(sp)
	st := drive(t, k, sp, 0)
	want := verify.SSSP(g, 0, Weight)
	got := k.Distances(st)
	for v := range want {
		if math.IsInf(want[v], 1) {
			if got[v] != float32(math.MaxFloat32) {
				t.Fatalf("vertex %d should be unreachable", v)
			}
			continue
		}
		if float64(got[v]) != want[v] {
			t.Fatalf("vertex %d dist = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestDriverCC(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewCC(sp)
	st := drive(t, k, sp, 0)
	want := verify.WCC(g)
	got := k.Components(st)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d label = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestDriverBC(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewBC(sp)
	st := drive(t, k, sp, 0)
	want := verify.BC(g, 0)
	got := k.Centrality(st, 0)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6*math.Max(want[v], 1)+1e-9 {
			t.Fatalf("vertex %d bc = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestDriverRWR(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewRWR(sp, 0.15, 5)
	st := drive(t, k, sp, 9)
	want := verify.RWR(g, 9, 0.15, 5)
	got := k.Ranks(st)
	for v := range want {
		if math.Abs(float64(got[v])-want[v]) > 1e-5 {
			t.Fatalf("vertex %d score = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestDriverDegreeDist(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewDegreeDist(sp)
	st := drive(t, k, sp, 0)
	got := k.Degrees(st)
	for v := uint64(0); v < g.NumVertices(); v++ {
		if int(got[v]) != g.Degree(v) {
			t.Fatalf("vertex %d degree = %d, want %d", v, got[v], g.Degree(v))
		}
	}
}

func TestDriverKCore(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewKCore(sp, 6)
	st := drive(t, k, sp, 0)
	want := verify.KCore(g, 6)
	got := k.InCore(st)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d in-core = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestDriverNeighborhood(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewNeighborhood(sp, 2)
	st := drive(t, k, sp, 0)
	full := verify.BFS(g, 0)
	got := k.Levels(st)
	for v := range full {
		want := full[v]
		if int(want) > 2 {
			want = -1
		}
		if got[v] != want {
			t.Fatalf("vertex %d = %d, want %d", v, got[v], want)
		}
	}
}

func TestDriverCrossEdges(t *testing.T) {
	g, sp := driverGraph(t)
	pivot := g.NumVertices() / 2
	side := func(v uint64) bool { return v < pivot }
	k := NewCrossEdges(sp, side)
	st := drive(t, k, sp, 0)
	var want int64
	for v := uint64(0); v < g.NumVertices(); v++ {
		vs := side(v)
		g.Neighbors(v, func(d uint64) {
			if side(d) != vs {
				want++
			}
		})
	}
	if got := k.Total(st); got != want {
		t.Fatalf("cross edges = %d, want %d", got, want)
	}
}

func TestDriverRadiusInvariants(t *testing.T) {
	g, sp := driverGraph(t)
	k := NewRadius(sp, 8, 64)
	st := drive(t, k, sp, 0)
	radii := k.Radii(st)
	// Radius never exceeds eccentricity (spot check a few sources).
	for v := uint32(0); v < 16; v++ {
		lv := verify.BFS(g, v)
		ecc := int32(0)
		for _, l := range lv {
			if int32(l) > ecc {
				ecc = int32(l)
			}
		}
		if radii[v] > ecc {
			t.Fatalf("vertex %d radius %d > eccentricity %d", v, radii[v], ecc)
		}
	}
	if d := k.EffectiveDiameter(st, 0.9); d < 1 {
		t.Errorf("effective diameter %d", d)
	}
}

func TestDriverTechniquesAgree(t *testing.T) {
	// A different micro-level technique changes only the cycle count.
	_, sp := driverGraph(t)
	for _, tech := range []Technique{VertexCentric, Hybrid} {
		k := NewBFS(sp)
		st := k.NewState()
		k.Init(st, 0)
		home := sp.HomeOf(0)
		a := &Args{Graph: sp, PID: home.PID, Page: sp.Page(home.PID), State: st,
			OwnedLo: 0, OwnedHi: sp.NumVertices(), Tech: tech}
		res := k.Run(a)
		if res.Cycles <= 0 {
			t.Errorf("%v: no cycles", tech)
		}
	}
}
