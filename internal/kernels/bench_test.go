package kernels

import (
	"fmt"
	"testing"

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
// BFSx8 is an eight-lane MultiBFS, per lane-edge: compare it with BFS.
//
// Every kernel runs at the benchmark's (2,2) layout, where PageRank, CC,
// SSSP, BFS (plain and NewDirBFS's direction-optimizing one) and MultiBFS
// take their (2,2) entry loops. pq33 and pq24 run PageRank, CC and SSSP
// again on the same graph at (3,3) and (2,4), whose entries go through the
// general VID loop.
func BenchmarkPageKernels(b *testing.B) {
	d, _ := graphgen.ByName("RMAT27")
	g := d.MustGenerate(11)
	build := func(p, q int) *slottedpage.Graph {
		sp, err := slottedpage.Build(g, slottedpage.ScaledConfig(p, q, 4096))
		if err != nil {
			b.Fatal(err)
		}
		if sp.NumSP() == 0 || sp.NumLP() == 0 {
			b.Fatalf("(%d,%d): %d small and %d large pages, want both kinds", p, q, sp.NumSP(), sp.NumLP())
		}
		return sp
	}
	sp := build(2, 2)
	b.Run("BFSx8", func(b *testing.B) {
		b.ReportAllocs()
		var edges int64
		for i := 0; i < b.N; i++ {
			edges += driveGroup(b, sp, groupSources(sp, 8), true)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
	})
	for _, kc := range []struct {
		name string
		mk   func(*slottedpage.Graph) Kernel
	}{
		{"BFS", func(g *slottedpage.Graph) Kernel { return NewBFS(g) }},
		{"SSSP", func(g *slottedpage.Graph) Kernel { return NewSSSP(g) }},
		{"BFS-diropt", func(g *slottedpage.Graph) Kernel { return NewDirBFS(g) }},
		{"PageRank", func(g *slottedpage.Graph) Kernel { return NewPageRank(g, 0.85, 1) }},
		{"CC", func(g *slottedpage.Graph) Kernel { return NewCC(g) }},
		{"BC", func(g *slottedpage.Graph) Kernel { return NewBC(g) }},
		{"CrossEdges", func(g *slottedpage.Graph) Kernel { return NewCrossEdges(g, func(v uint64) bool { return v&1 == 0 }) }},
		{"RWR", func(g *slottedpage.Graph) Kernel { return NewRWR(g, 0.15, 1) }},
		{"DegreeDist", func(g *slottedpage.Graph) Kernel { return NewDegreeDist(g) }},
		{"KCore", func(g *slottedpage.Graph) Kernel { return NewKCore(g, 3) }},
		{"Radius", func(g *slottedpage.Graph) Kernel { return NewRadius(g, 4, 3) }},
	} {
		b.Run(kc.name, func(b *testing.B) { benchKernel(b, sp, kc.mk) })
	}
	for _, l := range []struct {
		name string
		p, q int
	}{{"pq33", 3, 3}, {"pq24", 2, 4}} {
		b.Run(l.name, func(b *testing.B) {
			sp := build(l.p, l.q)
			b.Run("PageRank", func(b *testing.B) {
				benchKernel(b, sp, func(g *slottedpage.Graph) Kernel { return NewPageRank(g, 0.85, 1) })
			})
			b.Run("CC", func(b *testing.B) { benchKernel(b, sp, func(g *slottedpage.Graph) Kernel { return NewCC(g) }) })
			b.Run("SSSP", func(b *testing.B) { benchKernel(b, sp, func(g *slottedpage.Graph) Kernel { return NewSSSP(g) }) })
		})
	}
}

// benchKernel times one whole run of a fresh mk(sp) per iteration, in
// ns/edge, or ns/vertex for a kernel that reports no edges.
func benchKernel(b *testing.B, sp *slottedpage.Graph, mk func(*slottedpage.Graph) Kernel) {
	b.ReportAllocs()
	var edges int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := mk(sp)
		b.StartTimer()
		_, n := driveCount(b, k, sp, 0)
		edges += n
	}
	if edges > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
	} else {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sp.NumVertices()), "ns/vertex")
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

// driveGroup runs one plain BFS per source, as one MultiBFS when grouped is
// set and one after another otherwise, through the package's sequential
// driver, and returns their summed edges.
func driveGroup(tb testing.TB, g *slottedpage.Graph, sources []uint64, grouped bool) (edges int64) {
	if grouped {
		lanes := make([]*BFS, len(sources))
		for i := range lanes {
			lanes[i] = NewBFS(g)
		}
		_, edges = driveCount(tb, NewMultiBFS(g, lanes, sources), g, sources[0])
		return edges
	}
	for _, src := range sources {
		_, n := driveCount(tb, NewBFS(g), g, src)
		edges += n
	}
	return edges
}

// BenchmarkBFSGroupSizes prices the lanes: ms per k BFS, run separately
// against run as one k-lane MultiBFS.
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
					driveGroup(b, sp, groupSources(sp, k), mode == "grouped")
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/group")
			})
		}
	}
}
