package gts

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/kernels"
)

// chaosFaultPlan is the storage-error + device-OOM mix the shared-pool
// chaos tests run under. Every run draws its own injector from it, so the
// fault sequence per run is deterministic even when runs interleave.
func chaosFaultPlan() *FaultPlan {
	return &FaultPlan{
		Seed:              42,
		TransferErrorRate: 0.05,
		TransferStallRate: 0.05,
		StorageErrorRate:  0.05,
		CorruptionRate:    0.10,
		OOMKernelLaunches: []int64{10},
	}
}

// TestChaosSharedPoolConcurrent is the shared-pool torture test (run under
// -race by `make test-race`): two Systems over one graph and one
// BufferPool — one running 16 BFS jobs as one multi-source BFS, the other
// hammering solo BFS/PageRank — while storage faults, page corruption,
// PCI-E errors and a device OOM fire on every run. The OS-level
// interleaving of the two simulation environments is nondeterministic, so
// the pool's eviction history differs run to run; every result must STILL
// be byte-identical to the quiet solo baselines.
func TestChaosSharedPoolConcurrent(t *testing.T) {
	g := smallGraph(t)

	// Quiet baselines, each run on a private buffer.
	base, err := NewSystem(g, Config{Storage: SSDs, Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	bfs0, err := base.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	bfs512, err := base.BFS(512)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := base.PageRank(0.85, 5)
	if err != nil {
		t.Fatal(err)
	}

	// Half the topology: small enough that eviction happens, large
	// enough that the two environments contend for frames.
	cfg := Config{
		Storage: SSDs, Devices: 1, Faults: chaosFaultPlan(),
		PoolBytes: g.TopologyBytes() / 2,
	}
	pool, err := NewHostPool(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HostPool = pool
	sysA, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 16 BFS jobs on sysA, alternating sources, as one multi-source BFS under
	// the system's fault plan.
	jobs := make([]SharedJob, 16)
	bfsK := kernels.NewBFS(g)
	for i := range jobs {
		jobs[i] = SharedJob{Kernel: bfsK, Source: uint64(i % 2 * 512)}
	}

	var wg sync.WaitGroup
	var outs []SharedOutcome
	var groupErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		outs, _, groupErr = sysA.RunShared(jobs, nil)
	}()
	var soloBFS *BFSResult
	var soloPR *PageRankResult
	var errBFS, errPR error
	wg.Add(1)
	go func() {
		defer wg.Done()
		soloBFS, errBFS = sysB.BFS(0)
		soloPR, errPR = sysB.PageRank(0.85, 5)
	}()
	wg.Wait()

	if groupErr != nil {
		t.Fatalf("RunShared: %v", groupErr)
	}
	if errBFS != nil || errPR != nil {
		t.Fatalf("solo runs: bfs=%v pr=%v", errBFS, errPR)
	}
	for i, o := range outs {
		if o.Err != nil || o.Declined {
			t.Fatalf("job %d: err=%v declined=%v", i, o.Err, o.Declined)
		}
		want := bfs0.Levels
		if i%2 == 1 {
			want = bfs512.Levels
		}
		if !reflect.DeepEqual(bfsK.Levels(o.State), want) {
			t.Fatalf("job %d (BFS from %d) diverged under the shared pool + faults", i, jobs[i].Source)
		}
	}
	if !reflect.DeepEqual(soloBFS.Levels, bfs0.Levels) {
		t.Fatalf("concurrent solo BFS diverged under the shared pool + faults")
	}
	if !reflect.DeepEqual(soloPR.Ranks, pr.Ranks) {
		t.Fatalf("concurrent solo PageRank diverged under the shared pool + faults")
	}

	if err := pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Pinned != 0 {
		t.Fatalf("chaos runs finished with %d pages still pinned", st.Pinned)
	}
	if st.Loads == 0 {
		t.Fatal("no pool loads recorded — the runs bypassed the pool entirely")
	}
}

// TestChaosWarmPoolNoDoubleBuffer pins the acceptance criterion that two
// Systems sharing one pool keep at most one host copy per hot page: after
// one System warms a whole-topology pool, the other System's run loads
// NOTHING from storage — every page pin is a hit on the copy the first
// System already paid for — even with the fault plan armed.
func TestChaosWarmPoolNoDoubleBuffer(t *testing.T) {
	g := smallGraph(t)
	cfg := Config{
		Storage: SSDs, Devices: 1, Faults: chaosFaultPlan(),
		PoolBytes: g.TopologyBytes(),
	}
	pool, err := NewHostPool(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HostPool = pool
	sysA, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewSystem(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := sysA.PageRank(0.85, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PoolLoads == 0 {
		t.Fatal("cold run loaded nothing through the pool")
	}
	warm, err := sysB.PageRank(0.85, 3)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PoolLoads != 0 {
		t.Fatalf("second System re-read %d pages from storage: the pool double-buffered", warm.PoolLoads)
	}
	if warm.PoolHits == 0 {
		t.Fatal("warm run reports zero pool hits")
	}
	if warm.StorageBytes != 0 {
		t.Fatalf("warm run read %d storage bytes, want 0", warm.StorageBytes)
	}
	if !reflect.DeepEqual(warm.Ranks, cold.Ranks) {
		t.Fatal("warm run diverged from cold run")
	}
}
