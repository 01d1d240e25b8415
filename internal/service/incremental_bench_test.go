package service_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	gts "repro"
	"repro/internal/service"
)

// The graph every incremental-or-full cell runs on, and its vertex count.
const (
	incBenchSpec     = "RMAT27@11"
	incBenchVertices = 1 << 16
)

// incVsFull is one cell of the incremental-or-full comparison: medians over
// the measured epochs of the wall a caller waits (Run to Done) and of the
// engine's own two counters, for the delta-expansion run and for a full run
// of the same request on the same epoch.
type incVsFull struct {
	incMs, fullMs         float64
	incVirtMs, fullVirtMs float64
	incPages, fullPages   float64
}

// measureIncVsFull loads incBenchSpec on a retained-state server
// and on a plain one, both without a result cache, and for each of epochs
// commits batch(epoch) to both, runs algo with "incremental": true on the
// first and plainly on the second (alternating which goes first), and checks
// the two answers equal. Every timed incremental run must be a
// delta-expansion hit: a cell that falls back would time a full run twice.
func measureIncVsFull(tb testing.TB, algo string, epochs int, batch func(epoch int) []gts.EdgeOp) incVsFull {
	tb.Helper()
	inc := service.NewUncached(service.Config{Incremental: true})
	orc := service.NewUncached(service.Config{})
	defer inc.Close()
	defer orc.Close()
	dir := tb.TempDir()
	for name, srv := range map[string]*service.Server{"inc.wal": inc, "orc.wal": orc} {
		if err := srv.LoadMutableGraph("g", incBenchSpec, filepath.Join(dir, name), gts.Config{}, 0); err != nil {
			tb.Fatal(err)
		}
	}
	run := func(srv *service.Server, incremental bool) (*service.Result, float64) {
		start := time.Now()
		res, _ := runSync(tb, srv, service.Request{Graph: "g", Algo: algo, Incremental: incremental})
		return res, float64(time.Since(start)) / float64(time.Millisecond)
	}
	run(inc, true) // cold: captures the state epoch 1 expands from

	var cols [6][]float64
	for e := 0; e < epochs; e++ {
		ops := batch(e)
		for _, srv := range []*service.Server{inc, orc} {
			if _, err := srv.Ingest("g", ops); err != nil {
				tb.Fatal(err)
			}
		}
		hits := inc.Stats().IncrementalHits
		var got, want *service.Result
		var incMs, fullMs float64
		if e%2 == 0 {
			got, incMs = run(inc, true)
			want, fullMs = run(orc, false)
		} else {
			want, fullMs = run(orc, false)
			got, incMs = run(inc, true)
		}
		if inc.Stats().IncrementalHits != hits+1 {
			tb.Fatalf("%s epoch %d: the incremental request was not a delta-expansion hit", algo, e+1)
		}
		if !sameVector(got.Output, want.Output) {
			tb.Fatalf("%s epoch %d: incremental answer differs from a full run", algo, e+1)
		}
		for i, v := range []float64{
			incMs, fullMs,
			got.Metrics.Elapsed.Seconds() * 1e3, want.Metrics.Elapsed.Seconds() * 1e3,
			float64(got.Metrics.PagesStreamed), float64(want.Metrics.PagesStreamed),
		} {
			cols[i] = append(cols[i], v)
		}
	}
	var med [6]float64
	for i, c := range cols {
		sort.Float64s(c)
		med[i] = c[len(c)/2]
	}
	return incVsFull{med[0], med[1], med[2], med[3], med[4], med[5]}
}

// sameVector compares two results' per-vertex vectors bit for bit; their
// Metrics (cost, and the superstep count a delta run legitimately lowers) are
// not part of the answer.
func sameVector(a, b any) bool {
	switch a := a.(type) {
	case *gts.BFSResult:
		return equalLevels(a.Levels, b.(*gts.BFSResult).Levels)
	case *gts.CCResult:
		return equalLabels(a.Labels, b.(*gts.CCResult).Labels)
	case *gts.PageRankResult:
		return bitEqualRanks(a.Ranks, b.(*gts.PageRankResult).Ranks)
	}
	return false
}

// randomInserts returns a batch source of n edge inserts with both endpoints
// uniform over incBenchSpec's vertices.
func randomInserts(n int) func(epoch int) []gts.EdgeOp {
	rng := rand.New(rand.NewSource(int64(n)))
	return func(int) []gts.EdgeOp {
		ops := make([]gts.EdgeOp, n)
		for i := range ops {
			ops[i] = gts.EdgeOp{Src: uint64(rng.Intn(incBenchVertices)), Dst: uint64(rng.Intn(incBenchVertices))}
		}
		return ops
	}
}

// measureBesideFull reads what company costs an incremental request: each
// epoch times an incremental BFS from vertex 0 alone, then, one batch later,
// the same request submitted just after a full BFS from another source, so
// that the two queue for the graph's run token together. It returns the
// medians of the incremental request's wall alone and beside the full run,
// and of the full run's own wall.
func measureBesideFull(tb testing.TB, epochs int) (aloneMs, besideMs, fullMs float64) {
	tb.Helper()
	srv := service.NewUncached(service.Config{Incremental: true})
	defer srv.Close()
	if err := srv.LoadMutableGraph("g", incBenchSpec, filepath.Join(tb.TempDir(), "g.wal"), gts.Config{}, 0); err != nil {
		tb.Fatal(err)
	}
	inc := service.Request{Graph: "g", Algo: "bfs", Incremental: true}
	since := func(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Millisecond) }
	timed := func() float64 {
		start := time.Now()
		runSync(tb, srv, inc)
		return since(start)
	}
	timed() // cold: captures the state the first epoch expands from
	batch := randomInserts(8)
	ingest := func(e int) {
		if _, err := srv.Ingest("g", batch(e)); err != nil {
			tb.Fatal(err)
		}
	}
	var cols [3][]float64
	for e := 0; e < epochs; e++ {
		hits := srv.Stats().IncrementalHits
		ingest(e)
		cols[0] = append(cols[0], timed())
		ingest(e)
		start := time.Now()
		full, err := srv.Submit(service.Request{Graph: "g", Algo: "bfs", Params: service.Params{Source: uint64(e+1) * 4099}})
		if err != nil {
			tb.Fatal(err)
		}
		cols[1] = append(cols[1], timed())
		<-full.Done()
		cols[2] = append(cols[2], since(start))
		if srv.Stats().IncrementalHits != hits+2 {
			tb.Fatalf("epoch %d: an incremental request was not a delta-expansion hit", e+1)
		}
	}
	var med [3]float64
	for i, c := range cols {
		sort.Float64s(c)
		med[i] = c[len(c)/2]
	}
	return med[0], med[1], med[2]
}

// BenchmarkIncrementalVsFull re-reads the verdict BFS and CC delta-expansion
// stay on (EXPERIMENTS.md, incremental): the wall of an accepted incremental
// plan against a full run of the same request, per batch size. inc/full must
// stay under ROADMAP item 4 (d)'s 0.8; the virtual clock and the page counts
// ride along because that table is about where they disagree with the wall.
// bfs/beside-full submits the incremental BFS just after a full one: the two
// run one at a time, in the order they reach the graph's run token.
// beside/alone near 1 means the incremental request ran first, near
// full_ms/alone_ms that it queued behind the full run. On a 2-vCPU VM it
// read 0.99–1.11 over three runs (beside_ms 0.49–0.61, full_ms 11.5–12.5):
// the incremental request reached the token first each time.
func BenchmarkIncrementalVsFull(b *testing.B) {
	b.Run("bfs/beside-full", func(b *testing.B) {
		var alone, beside, full float64
		for i := 0; i < b.N; i++ {
			alone, beside, full = measureBesideFull(b, 5)
		}
		b.ReportMetric(alone, "alone_ms")
		b.ReportMetric(beside, "beside_ms")
		b.ReportMetric(full, "full_ms")
		b.ReportMetric(beside/alone, "beside/alone")
		b.ReportMetric(0, "ns/op")
	})
	for _, algo := range []string{"bfs", "cc"} {
		for _, n := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/batch%d", algo, n), func(b *testing.B) {
				var c incVsFull
				for i := 0; i < b.N; i++ {
					c = measureIncVsFull(b, algo, 5, randomInserts(n))
				}
				b.ReportMetric(c.incMs, "inc_ms")
				b.ReportMetric(c.fullMs, "full_ms")
				b.ReportMetric(c.incMs/c.fullMs, "inc/full")
				b.ReportMetric(c.incVirtMs, "inc_virt_ms")
				b.ReportMetric(c.fullVirtMs, "full_virt_ms")
				b.ReportMetric(c.incPages, "inc_pages")
				b.ReportMetric(c.fullPages, "full_pages")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}
