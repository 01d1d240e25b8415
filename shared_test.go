package gts

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// TestSystemRunShared exercises the public wave-group entry point: a mixed
// BFS + PageRank group must match the sequential references (System.BFS is
// itself a wave group of one, so it is no independent oracle) and report
// group-level sharing stats.
func TestSystemRunShared(t *testing.T) {
	g := smallGraph(t)
	sys, err := NewSystem(g, Config{})
	if err != nil {
		t.Fatal(err)
	}

	bfsK := kernels.NewBFS(g)
	prK := kernels.NewPageRank(g, 0.85, 5)
	outs, stats, err := sys.RunShared([]SharedJob{
		{Kernel: bfsK, Source: 0},
		{Kernel: bfsK, Source: 512},
		{Kernel: prK, Source: 0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("%d outcomes, want 3", len(outs))
	}
	for i, o := range outs {
		if o.Err != nil || o.Declined {
			t.Fatalf("outcome %d: err=%v declined=%v", i, o.Err, o.Declined)
		}
		if o.Metrics.Elapsed <= 0 {
			t.Errorf("outcome %d: Elapsed = %v", i, o.Metrics.Elapsed)
		}
	}
	if stats.BytesSaved == 0 || stats.Servings <= stats.PageCopies {
		t.Errorf("no sharing recorded: %+v", stats)
	}
	if stats.BytesToGPU <= 0 {
		t.Errorf("BytesToGPU = %v", stats.BytesToGPU)
	}

	// The kernel instance is shared between the two BFS jobs on purpose:
	// kernels are stateless decoders, all per-job data lives in the
	// outcome's State.
	d, _ := graphgen.ByName("RMAT27")
	raw := d.MustGenerate(27 - 11) // smallGraph's edge list
	for i, src := range []uint64{0, 512} {
		if !reflect.DeepEqual(bfsK.Levels(outs[i].State), verify.BFS(raw, uint32(src))) {
			t.Errorf("BFS member %d (source %d) differs from the reference", i, src)
		}
	}
	ranks := prK.Ranks(outs[2].State)
	for v, want := range verify.PageRank(raw, 0.85, 5) {
		if math.Abs(float64(ranks[v])-want) > 1e-5 {
			t.Fatalf("PageRank member: vertex %d rank = %v, reference %v", v, ranks[v], want)
		}
	}
	// Company must not move a byte: the same kernel alone gives the same
	// ranks.
	alone, err := sys.PageRank(0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ranks, alone.Ranks) {
		t.Error("PageRank member's ranks changed with the company it kept")
	}
}

// TestSystemRunSharedInheritsFaults: a nil per-job fault plan inherits the
// system's, and results stay identical to the fault-free group.
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
	if !reflect.DeepEqual(k.Levels(outs[0].State), verify.BFS(d.MustGenerate(27-11), 0)) {
		t.Error("faulted shared run differs from the reference traversal")
	}
}
