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
			edges += driveGroup(b, sp, groupSources(sp, 8), true)
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
