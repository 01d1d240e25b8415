package gts

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kernels"
)

// resultBytes splits a typed result into the vector it answers with — the
// bytes no device history may change — and its metrics.
func resultBytes(t *testing.T, res any) (any, Metrics) {
	t.Helper()
	switch r := res.(type) {
	case *BFSResult:
		return r.Levels, r.Metrics
	case *PageRankResult:
		return r.Ranks, r.Metrics
	case *SSSPResult:
		return r.Dist, r.Metrics
	case *CCResult:
		return r.Labels, r.Metrics
	}
	t.Fatalf("unexpected result type %T", res)
	return nil, Metrics{}
}

// TestSystemWarmRunNoSlowerThanCold: a System's device keeps its page cache
// from run to run. The second run of a request starts warm: it answers with
// the first run's bytes, and takes no more virtual time. Two GPUs and one
// (where PageRank's RA stays on the device), under Strategy-P and
// Strategy-S, in memory and on SSDs with a shared host pool, with the cache
// taking all spare device memory or a quarter of the topology. The one-GPU
// cases carry a /gpus1 suffix.
func TestSystemWarmRunNoSlowerThanCold(t *testing.T) {
	g := smallGraph(t)
	storages := map[string]Config{
		"memory": {},
		"ssd":    {Storage: SSDs, PoolBytes: g.TopologyBytes() / 4},
	}
	for sname, base := range storages {
		for _, gpus := range []int{2, 1} {
			for _, strategy := range []Strategy{StrategyP, StrategyS} {
				for _, cache := range []int64{0, g.TopologyBytes() / 4} {
					for _, algo := range []string{"bfs", "pagerank", "sssp", "cc"} {
						cfg := base
						cfg.GPUs, cfg.Strategy, cfg.CacheBytes = gpus, strategy, cache
						name := fmt.Sprintf("%s/%v/cache%d/%s", sname, strategy, cache, algo)
						if gpus == 1 {
							name += "/gpus1"
						}
						t.Run(name, func(t *testing.T) {
							sys, err := NewSystem(g, cfg)
							if err != nil {
								t.Fatal(err)
							}
							run := func() (any, Metrics) {
								res, err := sys.Run(algo, Params{})
								if err != nil {
									t.Fatal(err)
								}
								return resultBytes(t, res)
							}
							coldBytes, cold := run()
							warmBytes, warm := run()
							if !reflect.DeepEqual(coldBytes, warmBytes) {
								t.Fatal("the warm run's answer differs from the cold run's")
							}
							if warm.Elapsed > cold.Elapsed {
								t.Errorf("warm Elapsed %v > cold %v", warm.Elapsed, cold.Elapsed)
							}
							if warm.PagesStreamed > cold.PagesStreamed {
								t.Errorf("warm run streamed %d pages, cold %d", warm.PagesStreamed, cold.PagesStreamed)
							}
						})
					}
				}
			}
		}
	}
}

// TestSystemResidentAtStart: Report.ResidentAtStart counts the device pages
// a member finds resident when it joins. A fresh System's first run finds
// none; the run after it finds what the first one left.
func TestSystemResidentAtStart(t *testing.T) {
	g := smallGraph(t)
	sys, err := NewSystem(g, Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func() int64 {
		outs, _, err := sys.RunShared([]SharedJob{{Kernel: kernels.NewBFS(g), Source: 0}}, nil)
		if err != nil || outs[0].Err != nil {
			t.Fatal(err, outs[0].Err)
		}
		return outs[0].ResidentAtStart
	}
	if n := run(); n != 0 {
		t.Fatalf("a fresh System's first run found %d resident pages, want 0", n)
	}
	if n := run(); n <= 0 {
		t.Fatalf("the second run found %d resident pages, want the first run's", n)
	}
}

// TestSystemHoldKeepsDevice: a RunShared whose roster is empty — what a
// caller holding the System's run mutex through admit, with nothing to run,
// does — leaves the device as it found it. The PageRank after the hold finds
// the pages the PageRank before it found, and takes the same virtual time.
func TestSystemHoldKeepsDevice(t *testing.T) {
	g := smallGraph(t)
	sys, err := NewSystem(g, Config{ScaleFactor: 1 << 16, Streams: 4})
	if err != nil {
		t.Fatal(err)
	}
	run := func() SharedOutcome {
		outs, _, err := sys.RunShared([]SharedJob{{Kernel: kernels.NewPageRank(g, 0.85, 2)}}, nil)
		if err != nil || outs[0].Err != nil {
			t.Fatal(err, outs[0].Err)
		}
		return outs[0]
	}
	run()
	before := run()
	if before.ResidentAtStart == 0 {
		t.Fatal("the second PageRank found no resident page")
	}
	held, free, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		sys.RunShared(nil, func() []SharedJob {
			close(held)
			<-free
			return nil
		})
		close(done)
	}()
	<-held
	close(free)
	<-done
	if after := run(); after.ResidentAtStart != before.ResidentAtStart || after.Elapsed != before.Elapsed {
		t.Errorf("after the hold: %d resident pages at start, Elapsed %d ns; before it %d, %d ns",
			after.ResidentAtStart, after.Elapsed, before.ResidentAtStart, before.Elapsed)
	}
}
