package gts

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// TestSystemRunShared exercises the public roster entry point: BFS jobs run
// as one multi-source BFS whose outcomes must match the sequential
// references (System.BFS runs the same engine, so it is no independent
// oracle) and report the run's sharing stats; a roster that mixes kernels is
// an error that runs nothing.
func TestSystemRunShared(t *testing.T) {
	g := smallGraph(t)
	sys, err := NewSystem(g, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// The kernel instance is shared between the two BFS jobs on purpose:
	// kernels are stateless decoders, all per-job data lives in the
	// outcome's State.
	bfsK := kernels.NewBFS(g)
	outs, stats, err := sys.RunShared([]SharedJob{
		{Kernel: bfsK, Source: 0},
		{Kernel: bfsK, Source: 512},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("%d outcomes, want 2", len(outs))
	}
	d, _ := graphgen.ByName("RMAT27")
	raw := d.MustGenerate(27 - 11) // smallGraph's edge list
	for i, src := range []uint64{0, 512} {
		if o := outs[i]; o.Err != nil || o.Declined || o.Metrics.Elapsed != stats.Elapsed {
			t.Fatalf("outcome %d: err=%v declined=%v, Elapsed %v of the run's %v", i, o.Err, o.Declined, o.Metrics.Elapsed, stats.Elapsed)
		}
		if !reflect.DeepEqual(bfsK.Levels(outs[i].State), verify.BFS(raw, uint32(src))) {
			t.Errorf("BFS job %d (source %d) differs from the reference", i, src)
		}
	}
	if stats.BytesSaved == 0 || stats.Servings <= stats.PageCopies || stats.BytesToGPU <= 0 {
		t.Errorf("no sharing recorded: %+v", stats)
	}

	prK := kernels.NewPageRank(g, 0.85, 5)
	outs, _, err = sys.RunShared([]SharedJob{{Kernel: bfsK, Source: 0}, {Kernel: prK}}, nil)
	if err == nil || len(outs) != 2 || outs[1].Err != err {
		t.Fatalf("BFS + PageRank: %d outcomes, err %v; want the roster refused", len(outs), err)
	}
	ranks, err := sys.PageRank(0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range verify.PageRank(raw, 0.85, 5) {
		if math.Abs(float64(ranks.Ranks[v])-want) > 1e-5 {
			t.Fatalf("PageRank: vertex %d rank = %v, reference %v", v, ranks.Ranks[v], want)
		}
	}
}

// TestSystemRunSharedInheritsFaults: a run draws its faults from the
// system's plan, and results stay identical to the references, for a job
// alone and for a multi-source BFS.
func TestSystemRunSharedInheritsFaults(t *testing.T) {
	g := smallGraph(t)
	plan := &FaultPlan{Seed: 11, TransferErrorRate: 0.05, TransferStallRate: 0.05}
	sys, err := NewSystem(g, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.NewBFS(g)
	outs, _, err := sys.RunShared([]SharedJob{{Kernel: k, Source: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}
	if outs[0].Metrics.Faults.Injected() == 0 {
		t.Error("inherited fault plan injected nothing")
	}

	d, _ := graphgen.ByName("RMAT27")
	raw := d.MustGenerate(27 - 11)
	if !reflect.DeepEqual(k.Levels(outs[0].State), verify.BFS(raw, 0)) {
		t.Error("faulted run differs from the reference traversal")
	}
	outs, _, err = sys.RunShared([]SharedJob{{Kernel: k, Source: 512}, {Kernel: k, Source: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []uint32{512, 0} {
		if outs[i].Err != nil || !reflect.DeepEqual(k.Levels(outs[i].State), verify.BFS(raw, src)) {
			t.Errorf("faulted multi-source job %d: err %v, or its levels differ from the reference", i, outs[i].Err)
		}
	}
}
