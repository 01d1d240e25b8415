package core

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/csr"
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
	raw, sp, scale := benchGraph(b)
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

// benchGraph is the benchmark's graph, RMAT27@11 in 4 KiB pages, and the
// factor its stream-ssd workload scales the machine by: the largest power
// of two that leaves device memory no smaller than half the topology.
func benchGraph(b *testing.B) (*csr.Graph, *slottedpage.Graph, int64) {
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
	return raw, sp, scale
}

// BenchmarkRun times whole runs on the host clock — the functional half
// computing each wave's kernels and the simulation playing it, overlapped —
// in two of the benchmark's shapes on its graph:
//
//   - stream-ssd: one GPU and two SSDs on the scaled machine, a host pool of
//     a quarter of the topology; an op is a PageRank(3) and then a BFS;
//   - traverse: in memory; an op is an SSSP from vertex 0.
//
// host_ms is one op's wall. make bench runs it at -cpu 1,2: the -cpu 1 row is
// what a run costs when its two halves share one core.
//
//	go test ./internal/core -run '^$' -bench '^BenchmarkRun$' -cpu 1,2
func BenchmarkRun(b *testing.B) {
	raw, sp, scale := benchGraph(b)
	src := uint64(1)
	for raw.Degree(src) < 8 {
		src++
	}
	engine := func(b *testing.B, spec hw.MachineSpec, opts Options) *Engine {
		e, err := New(spec, sp, opts)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	run := func(b *testing.B, e *Engine, k kernels.Kernel, source uint64) {
		if _, err := e.RunJob(SharedJob{Kernel: k, Source: source}); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		op   func(b *testing.B) func()
	}{
		{"stream-ssd", func(b *testing.B) func() {
			pool, err := bufpool.New(bufpool.Config{PageSize: int64(sp.Config().PageSize), Bytes: sp.TopologyBytes() / 4})
			if err != nil {
				b.Fatal(err)
			}
			e := engine(b, hw.Workstation(1, 2).Scale(scale), Options{HostPool: pool})
			return func() {
				run(b, e, kernels.NewPageRank(sp, 0.85, 3), 0)
				run(b, e, kernels.NewBFS(sp), src)
			}
		}},
		{"traverse", func(b *testing.B) func() {
			e := engine(b, hw.Workstation(1, 0), Options{})
			return func() { run(b, e, kernels.NewSSSP(sp), 0) }
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			op := bc.op(b)
			op() // warm the device cache, the pool and the wave tables
			b.ResetTimer()
			for range b.N {
				op()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "host_ms")
		})
	}
}
