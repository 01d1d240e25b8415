package kernels

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/csr"
	"repro/internal/graphgen"
	"repro/internal/slottedpage"
)

// groupScript is one lock-step comparison: lane i starts from sources[i],
// capped at hops[i] when hops is set and hops[i] > 0 (a k-hop ball); every
// page runs under tech with the ownership range [ownedLo, ownedHi) on one of
// replicas GPUs, each with its own replica of the state (page p on GPU p mod
// replicas, the replicas merged after every level, as Strategy-P does).
type groupScript struct {
	sources          []uint64
	hops             []int
	tech             Technique
	ownedLo, ownedHi uint64
	replicas         int
}

// soloLane is one lane's solo BFS, run beside the MultiBFS.
type soloLane struct {
	k     *BFS
	st    []State
	next  *bitset.Set // the solo run's plan of the running level
	stats LaneStats
}

// runGroupScript drives a MultiBFS of sc's lanes level by level the way
// core's engine runs a kernel — replica by replica, pages ascending — beside
// one solo BFS per lane, and fails on the first (level, lane, page) whose
// lane Result differs from the solo kernel's, on any lane page set that
// differs from the solo kernel's plan of the next level or level vector that
// differs at a level's end, and on lane stats that differ from the solo
// runs'. It returns how many page runs had more than one lane.
func runGroupScript(t testing.TB, g *slottedpage.Graph, sc groupScript) (grouped int) {
	t.Helper()
	numPages := g.NumPages()
	lanes := make([]*BFS, len(sc.sources))
	solos := make([]*soloLane, len(sc.sources))
	for i, src := range sc.sources {
		lanes[i] = NewBFS(g)
		m := &soloLane{k: NewBFS(g), next: bitset.New(numPages)}
		if i < len(sc.hops) && sc.hops[i] > 0 {
			lanes[i], m.k = NewNeighborhood(g, sc.hops[i]), NewNeighborhood(g, sc.hops[i])
		}
		proto := m.k.NewState()
		m.k.Init(proto, src)
		for r := range sc.replicas {
			if r == 0 {
				m.st = append(m.st, proto)
			} else {
				m.st = append(m.st, proto.Clone())
			}
		}
		m.k.PlanLevel(m.st, 0, m.next)
		solos[i] = m
	}
	ms := NewMultiBFS(g, lanes, sc.sources)
	proto := ms.NewState()
	ms.Init(proto, 0)
	sts := []State{proto}
	for len(sts) < sc.replicas {
		sts = append(sts, proto.Clone())
	}
	union := bitset.New(numPages)
	ms.PlanLevel(sts, 0, union)
	for level := int32(0); union.Any(); level++ {
		for r := range sc.replicas {
			for pid := r; pid < numPages; pid += sc.replicas {
				if !union.Get(pid) {
					continue
				}
				args := func(st State) *Args {
					return &Args{Graph: g, PID: slottedpage.PageID(pid), Page: g.Page(slottedpage.PageID(pid)),
						State: st, Level: level, OwnedLo: sc.ownedLo, OwnedHi: sc.ownedHi, Tech: sc.tech}
				}
				got := ms.Run(args(sts[r]))
				var sum Result
				ran := 0
				for i, m := range solos {
					want := Result{}
					if m.next.Get(pid) {
						want = m.k.Run(args(m.st[r]))
						sum.Cycles += want.Cycles
						sum.Edges += want.Edges
						sum.Updates += want.Updates
						m.stats.Edges += want.Edges
						m.stats.Updates += want.Updates
						m.stats.Pages++
						ran++
					}
					if ms.res[i] != want {
						t.Fatalf("level %d, lane %d, page %d on replica %d with %d lanes:\n  lane %+v\n  solo %+v",
							level, i, pid, r, ran, ms.res[i], want)
					}
				}
				if got != sum {
					t.Fatalf("level %d, page %d: Result %+v, the lanes' sum %+v", level, pid, got, sum)
				}
				if ran > 1 {
					grouped++
				}
			}
		}
		ms.MergeStates(sts)
		ms.PlanLevel(sts, level+1, union)
		for i, m := range solos {
			m.k.MergeStates(m.st)
			if !m.next.Any() {
				continue
			}
			m.k.PlanLevel(m.st, level+1, m.next)
			if !m.next.Any() {
				m.stats.Levels = level + 1
			}
			if !sameSet(m.next, ms.cur[i]) {
				t.Fatalf("level %d: lane %d's page set differs from the solo run's", level, i)
			}
			for r := range sc.replicas {
				if !slices.Equal(sts[r].(*multiState).lv[i], m.k.Levels(m.st[r])) {
					t.Fatalf("level %d: lane %d's level vector (replica %d) differs from the solo run's", level, i, r)
				}
			}
		}
	}
	for i, m := range solos {
		st, stats := ms.Lane(sts[0], i)
		if stats != m.stats || !slices.Equal(lanes[i].Levels(st), m.k.Levels(m.st[0])) {
			t.Fatalf("lane %d: stats %+v, solo %+v (or its levels differ)", i, stats, m.stats)
		}
	}
	return grouped
}

// sameSet reports whether a and b hold the same pages.
func sameSet(a, b *bitset.Set) bool {
	for pid := range a.Len() {
		if a.Get(pid) != b.Get(pid) {
			return false
		}
	}
	return true
}

// lpSources returns up to n vertices whose home page is a large page.
func lpSources(g *slottedpage.Graph, n int) []uint64 {
	var out []uint64
	for _, pid := range g.LPIDs() {
		if v := g.RVT(pid).StartVID; len(out) < n && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// spread returns k sources from a fixed stride over the vertices that have
// out-edges worth following (every 7th source sits on a large page).
func spread(g *slottedpage.Graph, k int) []uint64 {
	lps := lpSources(g, k)
	src := make([]uint64, k)
	for i := range src {
		src[i] = uint64(i) * 37 % g.NumVertices()
		if i%7 == 3 && len(lps) > 0 {
			src[i] = lps[i/7%len(lps)]
		}
	}
	return src
}

// TestBFSGroupMatchesSeparate runs MultiBFS kernels of k lanes in lock step
// against k independent BFS kernels: per (level, lane, page) Result
// equality — cycles to the bit —, next-page sets, page sets, level vectors
// and lane stats, under every technique, an owned sub-range (at (2,2) and
// (3,3)), two replicas, sources on large pages, twins, and lanes done
// before others.
func TestBFSGroupMatchesSeparate(t *testing.T) {
	d, _ := graphgen.ByName("RMAT27")
	g, err := slottedpage.Build(d.MustGenerate(27-11), slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLP() == 0 {
		t.Fatal("test graph has no large pages")
	}
	nV := g.NumVertices()
	for _, k := range []int{2, 3, 8, 9, 20} {
		for _, tech := range []Technique{EdgeCentric, VertexCentric, Hybrid} {
			t.Run(fmt.Sprintf("k%d/%v", k, tech), func(t *testing.T) {
				if n := runGroupScript(t, g, groupScript{sources: spread(g, k), tech: tech, ownedHi: nV, replicas: 1}); n == 0 {
					t.Error("no page ran grouped")
				}
			})
		}
	}
	t.Run("owned-subrange", func(t *testing.T) {
		// Strategy-S's second GPU of two: it owns the upper half only.
		runGroupScript(t, g, groupScript{sources: spread(g, 8), ownedLo: nV / 2, ownedHi: nV, replicas: 1})
	})
	t.Run("owned-subrange-3-3", func(t *testing.T) {
		// The same at (3,3), where the solo BFS and MultiBFS take their
		// general entry loops, not the (2,2) ones: their ownership tests.
		g33, err := slottedpage.Build(d.MustGenerate(27-11), slottedpage.ScaledConfig(3, 3, 4096))
		if err != nil {
			t.Fatal(err)
		}
		runGroupScript(t, g33, groupScript{sources: spread(g33, 8), ownedLo: nV / 2, ownedHi: nV, replicas: 1})
	})
	t.Run("two-replicas", func(t *testing.T) {
		// Strategy-P on two GPUs: a vertex replica 0 reached this wave is still
		// unvisited on replica 1, which must discover and count it too. Fails
		// with one mask array for both (key seen by the block alone).
		runGroupScript(t, g, groupScript{sources: spread(g, 9), ownedHi: nV, replicas: 2})
	})
	t.Run("lp-sources-and-twins", func(t *testing.T) {
		src := append(lpSources(g, 3), 5, 5, 900)
		runGroupScript(t, g, groupScript{sources: src, ownedHi: nV, replicas: 1})
	})
	t.Run("lane-reuse", func(t *testing.T) {
		// No lane is reused: a lane whose page set empties stays done. The
		// lane from a vertex without out-edges is done after level 0 having
		// marked nothing, and the k-hop ball from 74 after two levels, while
		// the lanes from 0 and 37 run on.
		sink := uint64(0)
		for deg := g.OutDegrees(); deg.Of(sink) > 0; sink++ {
		}
		runGroupScript(t, g, groupScript{sources: []uint64{0, 37, sink, 74}, hops: []int{0, 0, 0, 2}, ownedHi: nV, replicas: 1})
	})
}

// fuzzGraph builds a small skewed graph from r: two hubs wide enough for
// large pages, a few hundred ordinary vertices.
func fuzzGraph(t testing.TB, r *rand.Rand) *slottedpage.Graph {
	n := 64 << r.Intn(5)
	var edges []csr.Edge
	for i := 0; i < n*(4+r.Intn(8)); i++ {
		src := uint32(r.Intn(n))
		if r.Intn(4) == 0 {
			src = uint32(r.Intn(2))
		}
		edges = append(edges, csr.Edge{Src: src, Dst: uint32(r.Intn(n))})
	}
	g, err := slottedpage.Build(csr.MustFromEdges(n, edges), slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzBFSGroup derives a graph, a lane count, sources, a technique, an
// ownership range, a replica count and hop caps (about half the lanes are
// k-hop balls, k in 1-4) from the seed and runs the lock-step comparison
// on them.
func FuzzBFSGroup(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		g := fuzzGraph(t, r)
		nV := g.NumVertices()
		k := 2 + r.Intn(19)
		sc := groupScript{tech: Technique(r.Intn(3)), ownedHi: nV, replicas: 1 + r.Intn(2)}
		if r.Intn(3) == 0 {
			sc.ownedLo = uint64(r.Int63n(int64(nV)))
		}
		for i := 0; i < k; i++ {
			sc.sources = append(sc.sources, uint64(r.Int63n(int64(nV))))
		}
		for range sc.sources {
			sc.hops = append(sc.hops, r.Intn(2)*(1+r.Intn(4)))
		}
		runGroupScript(t, g, sc)
	})
}
