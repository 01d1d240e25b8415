// Command gts runs a graph algorithm over a slotted-page store (or a
// registry dataset) on the simulated GTS machine and prints the result
// summary and run metrics.
//
// The -graph flag takes a gts.Open spec — a .gts store file or a registry
// dataset, optionally with an @shrink suffix — the same one-load path the
// gtsd service and the examples use.
//
// Usage:
//
//	gts -graph RMAT27@12 -algo pagerank -gpus 2
//	gts -graph web.gts -algo bfs -source 0 -storage ssd -devices 2
//	gts -graph web.gts -algo cc -strategy s -streams 8 -timeline
//	gts -graph RMAT27@15 -algo sssp -trace sssp.json
//
// -trace writes the run's recorder as Chrome trace_event JSON (Perfetto /
// chrome://tracing loadable; gtsinspect trace renders it). The engine is
// deterministic, so the file is byte-identical across reruns.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	gts "repro"
	"repro/internal/trace"
)

func main() {
	graphSpec := flag.String("graph", "RMAT27@12", "graph spec: store file or dataset[@shrink]")
	algo := flag.String("algo", "bfs", strings.Join(gts.Algorithms(), " | "))
	source := flag.Uint64("source", 0, "start vertex for bfs/sssp/bc/rwr/ball")
	iters := flag.Int("iters", 10, "PageRank/RWR iterations")
	kParam := flag.Int("k", 3, "K for kcore, hop count for ball")
	damping := flag.Float64("damping", 0.85, "PageRank damping factor")
	gpus := flag.Int("gpus", 1, "number of GPUs")
	storage := flag.String("storage", "mem", "mem | ssd | hdd")
	devices := flag.Int("devices", 2, "SSD/HDD count")
	strategy := flag.String("strategy", "p", "p (performance) | s (scalability)")
	streams := flag.Int("streams", 32, "GPU streams per GPU (1-32)")
	tech := flag.String("technique", "edge", "edge | vertex | hybrid micro-level technique")
	cache := flag.Int64("cache", 0, "page cache bytes per GPU (0 = all free device memory, -1 = off)")
	scaleHW := flag.Int64("scalehw", 0, "divide memory capacities by this factor (0 = full size)")
	timeline := flag.Bool("timeline", false, "print the per-stream copy/kernel timeline")
	traceOut := flag.String("trace", "", "write the run's trace to this file as Chrome trace JSON")
	top := flag.Int("top", 5, "result entries to print")
	flag.Parse()

	g, err := gts.Open(*graphSpec)
	fail(err)

	cfg := gts.Config{
		GPUs:        *gpus,
		Devices:     *devices,
		Streams:     *streams,
		CacheBytes:  *cache,
		ScaleFactor: *scaleHW,
	}
	cfg.Storage, err = gts.ParseStorage(*storage)
	fail(err)
	cfg.Strategy, err = gts.ParseStrategy(*strategy)
	fail(err)
	switch strings.ToLower(*tech) {
	case "vertex":
		cfg.Tech = gts.VertexCentric
	case "hybrid":
		cfg.Tech = gts.Hybrid
	case "edge":
	default:
		fail(fmt.Errorf("unknown technique %q", *tech))
	}
	var rec *trace.Recorder
	if *timeline || *traceOut != "" {
		rec = trace.NewWithID(*algo + "-" + *graphSpec)
		cfg.Trace = rec
	}

	sys, err := gts.NewSystem(g, cfg)
	fail(err)

	fmt.Printf("graph: %d vertices, %d edges, %d SP + %d LP pages\n",
		g.NumVertices(), g.NumEdges(), g.NumSP(), g.NumLP())

	// A request's zero parameters take the algorithm's defaults, and the ones
	// it does not use are dropped.
	out, err := sys.Run(strings.ToLower(*algo), gts.Params{
		Source: *source, Damping: *damping, Iterations: *iters, K: *kParam, Hops: *kParam,
	})
	fail(err)
	var m gts.Metrics
	switch res := out.(type) {
	case *gts.BFSResult:
		m = res.Metrics
		reached, depth := 0, int16(0)
		for _, l := range res.Levels {
			if l >= 0 {
				reached++
				if l > depth {
					depth = l
				}
			}
		}
		fmt.Printf("BFS from %d: reached %d vertices, depth %d\n", *source, reached, depth)
	case *gts.PageRankResult:
		m = res.Metrics
		fmt.Printf("PageRank (%d iterations): top %d vertices:\n", *iters, *top)
		printTop(res.Ranks, *top)
	case *gts.SSSPResult:
		m = res.Metrics
		reached := 0
		for _, d := range res.Dist {
			if d < 1e30 {
				reached++
			}
		}
		fmt.Printf("SSSP from %d: reached %d vertices\n", *source, reached)
	case *gts.CCResult:
		m = res.Metrics
		comps := map[uint32]int{}
		for _, l := range res.Labels {
			comps[l]++
		}
		largest := 0
		for _, n := range comps {
			if n > largest {
				largest = n
			}
		}
		fmt.Printf("CC: %d components, largest has %d vertices\n", len(comps), largest)
	case *gts.BCResult:
		m = res.Metrics
		fmt.Printf("BC from %d: top %d brokers:\n", *source, *top)
		printTop(res.Scores, *top)
	case *gts.RWRResult:
		m = res.Metrics
		fmt.Printf("RWR from %d: top %d proximate vertices:\n", *source, *top)
		printTop(res.Scores, *top)
	case *gts.DegreeResult:
		m = res.Metrics
		fmt.Printf("degree distribution: %d distinct degrees, max %d\n",
			len(res.Histogram), len(res.Histogram)-1)
	case *gts.KCoreResult:
		m = res.Metrics
		in := 0
		for _, a := range res.InCore {
			if a {
				in++
			}
		}
		fmt.Printf("%d-core: %d of %d vertices survive\n", *kParam, in, g.NumVertices())
	case *gts.RadiusResult:
		m = res.Metrics
		fmt.Printf("effective diameter (90%%): %d hops\n", res.EffectiveDiameter)
	case *gts.NeighborhoodResult:
		m = res.Metrics
		in := 0
		for _, h := range res.Hops {
			if h >= 0 {
				in++
			}
		}
		fmt.Printf("%d-hop ball around %d: %d vertices\n", *kParam, *source, in)
	}

	fmt.Printf("\nelapsed (virtual):  %v\n", m.Elapsed)
	fmt.Printf("levels/iterations:  %d\n", m.Levels)
	fmt.Printf("pages streamed:     %d (cache hit rate %.0f%%)\n", m.PagesStreamed, 100*m.CacheHitRate)
	fmt.Printf("bytes to GPU:       %d\n", m.BytesToGPU)
	fmt.Printf("storage bytes:      %d\n", m.StorageBytes)
	fmt.Printf("transfer vs kernel: %v vs %v\n", m.TransferTime, m.KernelTime)
	fmt.Printf("WA footprint:       %d bytes\n", m.WABytes)
	fmt.Printf("throughput:         %.0f MTEPS\n", m.MTEPS)
	if *timeline {
		fmt.Println()
		fail(rec.RenderTimeline(os.Stdout, 100))
	}
	if *traceOut != "" {
		fail(writeTrace(rec, *traceOut))
	}
}

// writeTrace writes rec to path as Chrome trace_event JSON.
func writeTrace(rec *trace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rec.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printTop prints the k highest entries of a score vector.
func printTop[T float32 | float64](scores []T, k int) {
	type pair struct {
		v uint64
		s float64
	}
	ps := make([]pair, len(scores))
	for i, s := range scores {
		ps[i] = pair{uint64(i), float64(s)}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s > ps[j].s })
	if k > len(ps) {
		k = len(ps)
	}
	for i := 0; i < k; i++ {
		fmt.Printf("  #%d vertex %-8d %.6g\n", i+1, ps[i].v, ps[i].s)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gts:", err)
		os.Exit(1)
	}
}
