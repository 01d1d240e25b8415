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

// groupScript is one lock-step comparison: member i starts from sources[i]
// at wave joinWave[i], capped at hops[i] when hops is set and hops[i] > 0
// (a k-hop ball); every page runs under tech with the ownership range
// [ownedLo, ownedHi) on one of replicas GPUs, each with its own replica of
// every member's state (page p on GPU p mod replicas, the replicas merged
// after every wave, as Strategy-P does).
type groupScript struct {
	sources          []uint64
	joinWave         []int
	hops             []int
	tech             Technique
	ownedLo, ownedHi uint64
	replicas         int
}

// scriptMember is one member, twice: sep runs the solo kernel on every page,
// grp goes through the BFSGroup whenever it shares a page.
type scriptMember struct {
	sep, grp         *BFS
	sepSt, grpSt     []State
	sepNext, grpNext *bitset.Set
	sepLoc, grpLoc   []*bitset.Set
	sepRes, grpRes   Result
	level            int32
	lane             int
}

// runGroupScript drives sc wave by wave the way core's driver does — small
// pages then large, replica by replica, pages ascending — and fails on the
// first (wave, member, page) whose grouped Result differs from the solo
// kernel's, and on any level vector or next-page set that differs at a
// wave's end. It returns how many pages ran grouped.
func runGroupScript(t testing.TB, g *slottedpage.Graph, sc groupScript) (grouped int) {
	t.Helper()
	numPages := g.NumPages()
	expandLPs := func(set *bitset.Set) {
		set.ForEach(func(pid int) {
			if g.Kind(slottedpage.PageID(pid)) != slottedpage.LargePage {
				return
			}
			owner := g.RVT(slottedpage.PageID(pid)).StartVID
			for p := pid; p < numPages && g.Kind(slottedpage.PageID(p)) == slottedpage.LargePage && g.RVT(slottedpage.PageID(p)).StartVID == owner; p++ {
				set.Set(p)
			}
		})
	}
	var group BFSGroup
	var active []*scriptMember
	joined := 0
	for wave := 0; ; wave++ {
		for i, src := range sc.sources {
			if sc.joinWave[i] != wave {
				continue
			}
			m := &scriptMember{sep: NewBFS(g), grp: NewBFS(g)}
			if i < len(sc.hops) && sc.hops[i] > 0 {
				m.sep, m.grp = NewNeighborhood(g, sc.hops[i]), NewNeighborhood(g, sc.hops[i])
			}
			for _, side := range []struct {
				k    *BFS
				st   *[]State
				next **bitset.Set
				loc  *[]*bitset.Set
			}{{m.sep, &m.sepSt, &m.sepNext, &m.sepLoc}, {m.grp, &m.grpSt, &m.grpNext, &m.grpLoc}} {
				proto := side.k.NewState()
				side.k.Init(proto, src)
				*side.st = []State{proto}
				*side.next = bitset.New(numPages)
				(*side.next).Set(int(g.HomeOf(src).PID))
				expandLPs(*side.next)
				for r := 0; r < sc.replicas; r++ {
					if r > 0 {
						*side.st = append(*side.st, proto.Clone())
					}
					*side.loc = append(*side.loc, bitset.New(numPages))
				}
			}
			m.lane = group.Join(m.grp)
			active = append(active, m)
			joined++
		}
		if len(active) == 0 {
			if joined == len(sc.sources) {
				return grouped
			}
			continue
		}
		for _, kind := range []slottedpage.Kind{slottedpage.SmallPage, slottedpage.LargePage} {
			for r := 0; r < sc.replicas; r++ {
				for pid := 0; pid < numPages; pid++ {
					if g.Kind(slottedpage.PageID(pid)) != kind || pid%sc.replicas != r {
						continue
					}
					var dem []*scriptMember
					for _, m := range active {
						if m.sepNext.Get(pid) {
							dem = append(dem, m)
						}
					}
					if len(dem) == 0 {
						continue
					}
					args := func(st State, level int32, loc *bitset.Set) *Args {
						return &Args{Graph: g, PID: slottedpage.PageID(pid), Page: g.Page(slottedpage.PageID(pid)),
							State: st, Level: level, OwnedLo: sc.ownedLo, OwnedHi: sc.ownedHi, Tech: sc.tech, NextPIDs: loc}
					}
					var lanes []BFSLane
					for _, m := range dem {
						m.sepRes = m.sep.Run(args(m.sepSt[r], m.level, m.sepLoc[r]))
						if len(dem) == 1 {
							// A page with one demander runs the solo kernel and
							// tells seen nothing.
							m.grpRes = m.grp.Run(args(m.grpSt[r], m.level, m.grpLoc[r]))
						}
						lanes = append(lanes, BFSLane{Lane: m.lane, State: m.grpSt[r], Level: m.level, NextPIDs: m.grpLoc[r], Res: &m.grpRes})
					}
					if len(dem) > 1 {
						if !group.Run(args(nil, -1, nil), r, lanes) {
							t.Fatalf("wave %d, page %d: the group kernel declined %d lanes", wave, pid, len(lanes))
						}
						grouped++
					}
					for _, m := range dem {
						if m.grpRes != m.sepRes {
							t.Fatalf("wave %d, lane %d (level %d), page %d on replica %d with %d demanders:\n  grouped %+v\n  solo    %+v",
								wave, m.lane, m.level, pid, r, len(dem), m.grpRes, m.sepRes)
						}
					}
				}
			}
		}
		alive := active[:0]
		for _, m := range active {
			m.sep.MergeStates(m.sepSt)
			m.grp.MergeStates(m.grpSt)
			m.sepNext.Reset()
			m.grpNext.Reset()
			for r := 0; r < sc.replicas; r++ {
				m.sepNext.Or(m.sepLoc[r])
				m.grpNext.Or(m.grpLoc[r])
				m.sepLoc[r].Reset()
				m.grpLoc[r].Reset()
			}
			expandLPs(m.sepNext)
			expandLPs(m.grpNext)
			for pid := 0; pid < numPages; pid++ {
				if m.sepNext.Get(pid) != m.grpNext.Get(pid) {
					t.Fatalf("wave %d: lane %d's next-page sets disagree on page %d", wave, m.lane, pid)
				}
			}
			for r := 0; r < sc.replicas; r++ {
				if !slices.Equal(m.grp.Levels(m.grpSt[r]), m.sep.Levels(m.sepSt[r])) {
					t.Fatalf("wave %d: lane %d's level vector (replica %d) differs from the solo run's", wave, m.lane, r)
				}
			}
			m.level++
			if m.sepNext.Any() {
				alive = append(alive, m)
			}
		}
		active = alive
	}
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

// TestBFSGroupMatchesSeparate runs groups of k plain-BFS members in lock
// step against k independent BFS kernels: per (wave, lane, page) Result
// equality — cycles to the bit —, level vectors and next-page sets, under
// every technique, an owned sub-range, two replicas, sources on large pages,
// twins, late joiners at other depths, and joiners after members have left.
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
	zeros := func(k int) []int { return make([]int, k) }

	for _, k := range []int{2, 3, 8, 9, 20} {
		for _, tech := range []Technique{EdgeCentric, VertexCentric, Hybrid} {
			t.Run(fmt.Sprintf("k%d/%v", k, tech), func(t *testing.T) {
				if n := runGroupScript(t, g, groupScript{sources: spread(g, k), joinWave: zeros(k), tech: tech, ownedHi: nV, replicas: 1}); n == 0 {
					t.Error("no page ran grouped")
				}
			})
		}
	}
	t.Run("owned-subrange", func(t *testing.T) {
		// Strategy-S's second GPU of two: it owns the upper half only.
		runGroupScript(t, g, groupScript{sources: spread(g, 8), joinWave: zeros(8), ownedLo: nV / 2, ownedHi: nV, replicas: 1})
	})
	t.Run("two-replicas", func(t *testing.T) {
		// Strategy-P on two GPUs: a vertex replica 0 reached this wave is still
		// unvisited on replica 1, which must discover and count it too. Fails
		// with one mask array for both (key seen by the block alone).
		runGroupScript(t, g, groupScript{sources: spread(g, 9), joinWave: zeros(9), ownedHi: nV, replicas: 2})
	})
	t.Run("lp-sources-and-twins", func(t *testing.T) {
		src := append(lpSources(g, 3), 5, 5, 900)
		runGroupScript(t, g, groupScript{sources: src, joinWave: zeros(len(src)), ownedHi: nV, replicas: 1})
	})
	t.Run("late-joiners", func(t *testing.T) {
		// Members at different depths share pages: a lane's level is its own.
		runGroupScript(t, g, groupScript{sources: []uint64{0, 37, 74, 111, 148}, joinWave: []int{0, 0, 1, 2, 3}, ownedHi: nV, replicas: 1})
	})
	t.Run("lane-reuse", func(t *testing.T) {
		// No lane is reused. Vertex 1 has no out-edges here, so its member
		// leaves after wave 0 having marked nothing; the members from 0 and
		// 37 finish later, and the joiners at waves 8 and 9 take fresh lanes
		// beside the columns that say "visited" for most of the graph.
		levels := NewBFS(g)
		st := drive(t, levels, g, 0)
		depth := int(slices.Max(levels.Levels(st)))
		if depth+2 > 8 {
			t.Fatalf("source 0 reaches depth %d: the late joiners below would not follow its leaving", depth)
		}
		runGroupScript(t, g, groupScript{sources: []uint64{0, 37, 1, 74, 111}, joinWave: []int{0, 0, 0, 8, 9}, ownedHi: nV, replicas: 1})
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

// FuzzBFSGroup derives a graph, a group size, sources, join waves, a
// technique, an ownership range, a replica count and hop caps (about half
// the members are k-hop balls, k in 1-4) from the seed and runs the
// lock-step comparison on them. The caps are drawn last, so a seed's graph,
// sources and join waves are what they were before members had caps.
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
			sc.joinWave = append(sc.joinWave, r.Intn(3)*r.Intn(5))
		}
		for range sc.sources {
			sc.hops = append(sc.hops, r.Intn(2)*(1+r.Intn(4)))
		}
		runGroupScript(t, g, sc)
	})
}
