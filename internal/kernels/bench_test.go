package kernels

import (
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
func BenchmarkPageKernels(b *testing.B) {
	d, _ := graphgen.ByName("RMAT27")
	sp, err := slottedpage.Build(d.MustGenerate(11), slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		b.Fatal(err)
	}
	if sp.NumSP() == 0 || sp.NumLP() == 0 {
		b.Fatalf("%d small and %d large pages, want both kinds", sp.NumSP(), sp.NumLP())
	}
	for _, mk := range []func() Kernel{
		func() Kernel { return NewBFS(sp) },
		func() Kernel { return NewSSSP(sp) },
		func() Kernel { return NewDirBFS(sp) },
		func() Kernel { return NewDeltaSSSP(sp) },
		func() Kernel { return NewPageRank(sp, 0.85, 1) },
		func() Kernel { return NewCC(sp) },
		func() Kernel { return NewBC(sp) },
		func() Kernel { return NewNeighborhood(sp, 3) },
		func() Kernel { return NewCrossEdges(sp, func(v uint64) bool { return v&1 == 0 }) },
		func() Kernel { return NewRWR(sp, 0.15, 1) },
		func() Kernel { return NewDegreeDist(sp) },
		func() Kernel { return NewKCore(sp, 3) },
		func() Kernel { return NewRadius(sp, 4, 3) },
	} {
		b.Run(mk().Name(), func(b *testing.B) {
			b.ReportAllocs()
			var edges int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k := mk() // DirBFS reads out-degrees here; not a page kernel's cost
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
