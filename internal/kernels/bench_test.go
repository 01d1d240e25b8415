package kernels

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graphgen"
	"repro/internal/slottedpage"
)

// BenchmarkPageKernels prices every page kernel on the repository
// benchmark's graph (RMAT27@11: 65 536 vertices, ≈ 1 M edges, small pages
// and large-page runs both): one whole run per iteration through the
// package's own sequential driver, so the time is the kernels' — slot scan,
// record lookup, entry decode, lane accounting — and nothing of the
// engine's. ns/edge divides by the adjacency entries the run reported
// traversing (Result.Edges); DegreeDist decodes none and reports ns/vertex.
// BFSx8 is eight plain-BFS members in lock step through the BFSGroup page
// kernel, per member-edge: compare it with BFS.
func BenchmarkPageKernels(b *testing.B) {
	d, _ := graphgen.ByName("RMAT27")
	sp, err := slottedpage.Build(d.MustGenerate(11), slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		b.Fatal(err)
	}
	if sp.NumSP() == 0 || sp.NumLP() == 0 {
		b.Fatalf("%d small and %d large pages, want both kinds", sp.NumSP(), sp.NumLP())
	}
	b.Run("BFSx8", func(b *testing.B) {
		b.ReportAllocs()
		var edges int64
		for i := 0; i < b.N; i++ {
			edges += driveGroup(sp, groupSources(sp, 8), true)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
	})
	for _, kc := range []struct {
		name string
		mk   func() Kernel
	}{
		{"BFS", func() Kernel { return NewBFS(sp) }},
		{"SSSP", func() Kernel { return NewSSSP(sp) }},
		{"BFS-diropt", func() Kernel { return NewDirBFS(sp) }},
		{"PageRank", func() Kernel { return NewPageRank(sp, 0.85, 1) }},
		{"CC", func() Kernel { return NewCC(sp) }},
		{"BC", func() Kernel { return NewBC(sp) }},
		{"CrossEdges", func() Kernel { return NewCrossEdges(sp, func(v uint64) bool { return v&1 == 0 }) }},
		{"RWR", func() Kernel { return NewRWR(sp, 0.15, 1) }},
		{"DegreeDist", func() Kernel { return NewDegreeDist(sp) }},
		{"KCore", func() Kernel { return NewKCore(sp, 3) }},
		{"Radius", func() Kernel { return NewRadius(sp, 4, 3) }},
	} {
		mk := kc.mk
		b.Run(kc.name, func(b *testing.B) {
			b.ReportAllocs()
			var edges int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k := mk()
				b.StartTimer()
				_, n := driveCount(b, k, sp, 0)
				edges += n
			}
			if edges > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
			} else {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sp.NumVertices()), "ns/vertex")
			}
		})
	}
}

// groupSources returns the first k of the repository benchmark's eight
// shared-BFS sources (bench/lib.go: the first vertex at or after j·|V|/8 + 1
// with at least 8 out-edges).
func groupSources(g *slottedpage.Graph, k int) []uint64 {
	deg := g.OutDegrees()
	src := make([]uint64, k)
	for j := range src {
		v := uint64(j)*g.NumVertices()/8 + 1
		for deg.Of(v) < 8 {
			v++
		}
		src[j] = v
	}
	return src
}

// driveGroup runs one plain BFS per source in lock step, one wave per level,
// each wave page-major the way core's driver runs it: a page's demanders are
// offered to the BFSGroup when grouped is set, and run one solo execution
// per member when it declines or is not asked. It returns the members'
// summed edges.
func driveGroup(g *slottedpage.Graph, sources []uint64, grouped bool) (edges int64) {
	type member struct {
		k           *BFS
		st          State
		next, local *bitset.Set
		level       int32
		lane        int
		res         Result
	}
	numPages := g.NumPages()
	var group BFSGroup
	var active []*member
	for _, src := range sources {
		m := &member{k: NewBFS(g), next: bitset.New(numPages), local: bitset.New(numPages)}
		m.st = m.k.NewState()
		m.k.Init(m.st, src)
		MarkVertexPages(g, src, m.next, true)
		m.lane = group.Join(m.k)
		active = append(active, m)
	}
	var lanes []BFSLane
	var dem []*member
	for len(active) > 0 {
		for pid := 0; pid < numPages; pid++ {
			dem = dem[:0]
			for _, m := range active {
				if m.next.Get(pid) {
					dem = append(dem, m)
				}
			}
			if len(dem) == 0 {
				continue
			}
			a := Args{Graph: g, PID: slottedpage.PageID(pid), Page: g.Page(slottedpage.PageID(pid)), OwnedHi: g.NumVertices()}
			lanes = lanes[:0]
			if grouped {
				for _, m := range dem {
					lanes = append(lanes, BFSLane{Lane: m.lane, State: m.st, Level: m.level, NextPIDs: m.local, Res: &m.res})
				}
			}
			if !group.Run(&a, 0, lanes) {
				for _, m := range dem {
					a.State, a.Level, a.NextPIDs = m.st, m.level, m.local
					m.res = m.k.Run(&a)
				}
			}
			for _, m := range dem {
				edges += m.res.Edges
			}
		}
		alive := active[:0]
		for _, m := range active {
			m.next.Reset()
			m.local.ForEach(func(pid int) {
				// A page kernel marks a large vertex's first page only; this
				// adds the rest of its run (a small page is its StartVID's home).
				MarkVertexPages(g, g.RVT(slottedpage.PageID(pid)).StartVID, m.next, true)
			})
			m.local.Reset()
			m.level++
			if m.next.Any() {
				alive = append(alive, m)
			}
		}
		active = alive
	}
	return edges
}

// BenchmarkBFSGroupSizes is the comparison bfsGroupMin is read from: ms per
// k-member BFS group, members run separately against members sharing the
// group kernel.
func BenchmarkBFSGroupSizes(b *testing.B) {
	d, _ := graphgen.ByName("RMAT27")
	sp, err := slottedpage.Build(d.MustGenerate(11), slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 8} {
		for _, mode := range []string{"separate", "grouped"} {
			b.Run(fmt.Sprintf("k%d/%s", k, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					driveGroup(sp, groupSources(sp, k), mode == "grouped")
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/group")
			})
		}
	}
}
