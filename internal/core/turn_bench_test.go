package core

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/graphgen"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
)

// BenchmarkBFSGroupVsInTurn runs eight BFS from the benchmark's stream-ssd
// sources (RMAT27@11, 4 KiB pages, two GPUs and two SSDs scaled until
// device memory is half the topology, a host pool of a quarter of it) on an
// engine a PageRank(3) has warmed, as that workload's round does: once as
// one multi-source BFS, once one after another. An op is one such run; the
// warm-up is untimed. virt_ms is the virtual makespan and virt_job_sum_ms
// the jobs' Elapsed summed (equal in turn, where the jobs do not overlap;
// every lane's Elapsed is the whole run's).
//
//	go test ./internal/core -run '^$' -bench BFSGroupVsInTurn -benchtime 1x -count 5
func BenchmarkBFSGroupVsInTurn(b *testing.B) {
	ds, _ := graphgen.ByName("RMAT27")
	raw := ds.MustGenerate(11)
	sp, err := slottedpage.Build(raw, slottedpage.ScaledConfig(2, 2, 4096))
	if err != nil {
		b.Fatal(err)
	}
	scale := int64(1)
	for hw.TitanX().DeviceMemory/(scale*2) >= max(sp.TopologyBytes()/2, 2<<20) {
		scale *= 2
	}
	var sources []uint64
	for j := range uint64(8) {
		for v := j*raw.NumVertices()/8 + 1; v < raw.NumVertices(); v++ {
			if raw.Degree(v) >= 8 {
				sources = append(sources, v)
				break
			}
		}
	}
	warmEngine := func(b *testing.B) *Engine {
		pool, err := bufpool.New(bufpool.Config{PageSize: int64(sp.Config().PageSize), Bytes: sp.TopologyBytes() / 4})
		if err != nil {
			b.Fatal(err)
		}
		e, err := New(hw.Workstation(2, 2).Scale(scale), sp, Options{HostPool: pool})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.RunJob(SharedJob{Kernel: kernels.NewPageRank(sp, 0.85, 3)}); err != nil {
			b.Fatal(err)
		}
		return e
	}
	jobs := func() []SharedJob {
		var js []SharedJob
		for _, s := range sources {
			js = append(js, SharedJob{Kernel: kernels.NewBFS(sp), Source: s})
		}
		return js
	}
	report := func(b *testing.B, makespan, jobSum sim.Time) {
		b.ReportMetric(makespan.Seconds()*1e3, "virt_ms")
		b.ReportMetric(jobSum.Seconds()*1e3, "virt_job_sum_ms")
	}
	b.Run("group", func(b *testing.B) {
		for range b.N {
			b.StopTimer()
			e := warmEngine(b)
			b.StartTimer()
			outs, stats, err := e.RunShared(jobs())
			if err != nil {
				b.Fatal(err)
			}
			var sum sim.Time
			for _, o := range outs {
				if o.Err != nil || o.Declined {
					b.Fatalf("job: err %v, declined %v", o.Err, o.Declined)
				}
				sum += o.Elapsed
			}
			report(b, stats.Elapsed, sum)
		}
	})
	b.Run("in-turn", func(b *testing.B) {
		for range b.N {
			b.StopTimer()
			e := warmEngine(b)
			b.StartTimer()
			var sum sim.Time
			for _, job := range jobs() {
				rep, err := e.RunJob(job)
				if err != nil {
					b.Fatal(err)
				}
				sum += rep.Elapsed
			}
			report(b, sum, sum)
		}
	})
}
