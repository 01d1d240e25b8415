package core

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// newTestPool builds a host pool of the given budget (0 = the whole
// topology) over the test graph's page size.
func newTestPool(t *testing.T, sp *slottedpage.Graph, bytes int64) *bufpool.Pool {
	t.Helper()
	if bytes == 0 {
		bytes = sp.TopologyBytes()
	}
	p, err := bufpool.New(bufpool.Config{PageSize: int64(sp.Config().PageSize), Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCyclicScanHitRates pins §3.3's hit-rate model at both residency
// levels: k scans of N pages through B slots hit (k-1)·B times in the device
// cache, which keeps what it holds, and at least (k-1)·(B-1) times in the host
// pool, whose victim is the page just released. LRU scores zero on both.
func TestCyclicScanHitRates(t *testing.T) {
	const n, k = 64, 4
	for _, b := range []int{n / 4, n / 2, 3 * n / 4} {
		cache := hw.NewPageCache(b, n)
		pool, err := bufpool.New(bufpool.Config{PageSize: 1, Bytes: int64(b)})
		if err != nil {
			t.Fatal(err)
		}
		cacheHits := 0
		for scan := 0; scan < k; scan++ {
			for pid := uint64(0); pid < n; pid++ {
				if cache.Contains(pid) {
					cacheHits++
				}
				cache.Insert(pid)
				if pool.Pin(pid) == bufpool.Load {
					pool.Ready(pid)
				}
				pool.Unpin(pid)
			}
		}
		if want := (k - 1) * b; cacheHits != want {
			t.Errorf("B=%d: device cache hit %d times, want %d", b, cacheHits, want)
		}
		if st, want := pool.Stats(), int64((k-1)*(b-1)); st.Hits < want || st.PinWaits != 0 {
			t.Errorf("B=%d: host pool hit %d times (%d bypasses), want >= %d and none", b, st.Hits, st.PinWaits, want)
		}
	}
}

// TestPooledRunByteIdentical: a storage-backed run through a handed-in
// host pool produces results byte-identical to the reference traversal and
// leaves no pins behind.
func TestPooledRunByteIdentical(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	pool := newTestPool(t, sp, sp.TopologyBytes()/4)
	k := kernels.NewBFS(sp)
	rep := mustRun(t, newEngine(t, sp, Options{HostPool: pool}, 1, 1), k, 0)
	wantBFS(t, "pooled", g, 0, k.Levels(rep.State))
	if rep.PoolLoads == 0 {
		t.Fatal("pooled storage run reports zero pool loads")
	}
	if err := pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Pinned != 0 {
		t.Fatalf("run finished with %d pages still pinned", st.Pinned)
	}
}

// TestPrivatePoolMatchesExplicitPool pins what "HostPool == nil" means: the
// run builds itself a pool of 20% of the topology, so it is
// indistinguishable — virtual time, data movement, pin outcomes, result
// bytes — from the same run handed a fresh pool of that size.
func TestPrivatePoolMatchesExplicitPool(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	cases := kernelCases()
	bfs, pr := cases[0], cases[2]
	type outcome struct {
		rep    *Report
		digest [sha256.Size]byte
	}
	// run executes the workload once and returns every member's outcome.
	run := func(t *testing.T, spec hw.MachineSpec, kcs []kernelCase, faulted bool, pool *bufpool.Pool) []outcome {
		opts := Options{HostPool: pool}
		if faulted {
			opts.Faults = chaosPlan()
		}
		e, err := New(spec, sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []SharedJob
		for i, kc := range kcs {
			jobs = append(jobs, SharedJob{Kernel: kc.make(sp), Source: uint64(i * 7)})
		}
		outs, _ := mustRunShared(t, e, jobs)
		var res []outcome
		for i, o := range outs {
			if o.Err != nil || o.Declined {
				t.Fatalf("member %d: err=%v declined=%v", i, o.Err, o.Declined)
			}
			res = append(res, outcome{&outs[i].Report, sha256.Sum256(kcs[i].enc(jobs[i].Kernel, o.Report.State))})
		}
		return res
	}
	workloads := []struct {
		name string
		kcs  []kernelCase
	}{
		{"BFS", []kernelCase{bfs}},
		{"PageRank", []kernelCase{pr}},
		{"wave8", []kernelCase{bfs, bfs, bfs, bfs, bfs, bfs, bfs, bfs}},
	}
	specs := []struct {
		name string
		spec hw.MachineSpec
	}{{"ssd", hw.Workstation(1, 2)}, {"hdd", hw.WorkstationHDD(1, 2)}}
	for _, w := range workloads {
		for _, s := range specs {
			for _, faulted := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/faulted=%v", w.name, s.name, faulted), func(t *testing.T) {
					private := run(t, s.spec, w.kcs, faulted, nil)
					explicit := run(t, s.spec, w.kcs, faulted, newTestPool(t, sp, sp.TopologyBytes()/5))
					var loads int64
					for i := range private {
						a, b := private[i].rep, explicit[i].rep
						if a.Elapsed != b.Elapsed || a.PagesStreamed != b.PagesStreamed || a.StorageBytes != b.StorageBytes ||
							a.PoolHits != b.PoolHits || a.PoolLoads != b.PoolLoads || a.PoolWaits != b.PoolWaits ||
							a.BufferHitRate != b.BufferHitRate || private[i].digest != explicit[i].digest {
							t.Errorf("member %d: private pool %+v\nexplicit pool %+v", i, *a, *b)
						}
						loads += a.PoolLoads
					}
					if loads == 0 {
						t.Error("no pool loads on a storage-backed run")
					}
				})
			}
		}
	}
}

// TestWarmPoolServesSecondRun pins the no-double-buffering property at the
// engine level: a second engine sharing the pool reads nothing from
// storage for pages the first run already loaded — at most one host copy
// per hot page.
func TestWarmPoolServesSecondRun(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	pool := newTestPool(t, sp, 0) // whole topology fits

	k1 := kernels.NewBFS(sp)
	rep1 := mustRun(t, newEngine(t, sp, Options{HostPool: pool}, 1, 1), k1, 0)
	if rep1.PoolLoads == 0 {
		t.Fatal("cold run loaded nothing through the pool")
	}

	k2 := kernels.NewBFS(sp)
	rep2 := mustRun(t, newEngine(t, sp, Options{HostPool: pool}, 1, 1), k2, 0)
	if rep2.PoolLoads != 0 {
		t.Fatalf("warm run re-read %d pages from storage, want 0", rep2.PoolLoads)
	}
	if rep2.PoolHits == 0 {
		t.Fatal("warm run reports zero pool hits")
	}
	if rep2.StorageBytes != 0 {
		t.Fatalf("warm run read %d storage bytes, want 0", rep2.StorageBytes)
	}
	wantL, gotL := k1.Levels(rep1.State), k2.Levels(rep2.State)
	for v := range wantL {
		if gotL[v] != wantL[v] {
			t.Fatalf("warm run diverged at vertex %d", v)
		}
	}
}

// TestPooledSharedGroup: a multi-BFS roster over the shared pool matches
// solo results, and its lanes share one pin per page (the pool sees at most
// one load per page, however many lanes run it).
func TestPooledSharedGroup(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	pool := newTestPool(t, sp, 0)

	solo := kernels.NewBFS(sp)
	soloRep := mustRun(t, newEngine(t, sp, Options{}, 1, 1), solo, 0)
	want := append([]int16(nil), solo.Levels(soloRep.State)...)

	e := newEngine(t, sp, Options{HostPool: pool}, 1, 1)
	jobs := []SharedJob{
		{Kernel: kernels.NewBFS(sp), Source: 0},
		{Kernel: kernels.NewBFS(sp), Source: 0},
		{Kernel: kernels.NewBFS(sp), Source: 0},
	}
	outs, _ := mustRunShared(t, e, jobs)
	for i, out := range outs {
		if out.Err != nil || out.Declined {
			t.Fatalf("member %d: err=%v declined=%v", i, out.Err, out.Declined)
		}
		got := jobs[i].Kernel.(*kernels.BFS).Levels(out.Report.State)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("member %d diverged at vertex %d", i, v)
			}
		}
	}
	st := pool.Stats()
	if st.Loads > int64(sp.NumPages()) {
		t.Fatalf("group loaded %d pages through the pool, want <= %d (one host copy per page)",
			st.Loads, sp.NumPages())
	}
	if st.Pinned != 0 {
		t.Fatalf("group finished with %d pages still pinned", st.Pinned)
	}
	if err := pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOOMRecoveryKeepsCaching is the regression test for the recover.go
// degradation path: a device OOM at the very first kernel launch used to
// drop the page cache for the rest of the run (post-recovery cache hits
// were impossible); now the cache shrinks by half, the launch retries,
// and the budget re-grows — so a multi-iteration kernel still hits the
// cache after recovery.
func TestOOMRecoveryKeepsCaching(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)

	k := kernels.NewPageRank(sp, 0.85, 5)
	clean := mustRun(t, newEngine(t, sp, Options{}, 1, 1), k, 0)
	wantRanks := append([]float32(nil), k.Ranks(clean.State)...)
	if clean.CacheHits == 0 {
		t.Fatal("clean run has no cache hits — the regression check is vacuous")
	}

	plan := &fault.Plan{Seed: 7, OOMKernelLaunches: []int64{1}}
	k2 := kernels.NewPageRank(sp, 0.85, 5)
	rep := mustRun(t, newEngine(t, sp, Options{Faults: plan}, 1, 1), k2, 0)
	if rep.Faults.DeviceOOMs != 1 || rep.Faults.Degradations != 1 {
		t.Fatalf("fault stats: %+v, want exactly one OOM and one degradation", rep.Faults)
	}
	// The OOM hits the first launch, before any page could be re-read from
	// the cache — so every hit below happened after recovery.
	if rep.CacheHits == 0 {
		t.Fatal("no cache hits after OOM recovery: the degradation disabled caching for the run")
	}
	got := k2.Ranks(rep.State)
	for v := range wantRanks {
		if got[v] != wantRanks[v] {
			t.Fatalf("vertex %d rank = %v after OOM recovery, want %v (bit-exact)", v, got[v], wantRanks[v])
		}
	}
}

// TestPoolPageSizeMismatchRejected: engine construction validates the
// pool's page size against the graph's.
func TestPoolPageSizeMismatchRejected(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	wrong, err := bufpool.New(bufpool.Config{PageSize: int64(sp.Config().PageSize) * 2, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(hw.Workstation(1, 1), sp, Options{HostPool: wrong}); err == nil {
		t.Fatal("engine accepted a pool with mismatched page size")
	}
}

// TestCarriedPagesLeaveThePool: a run on a warm device never asks the host
// pool for the pages the device carries, so setup drops them from the pool
// (while nothing pins them) and leaves the frames to the pages the device
// lacks. Two PageRank scans through a pool that holds the whole topology
// and a device that holds a quarter of it.
func TestCarriedPagesLeaveThePool(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	n := sp.NumPages()
	pool := newTestPool(t, sp, 0)
	e := newEngine(t, sp, Options{HostPool: pool, CacheBytes: int64(n/4) * int64(sp.Config().PageSize)}, 1, 1)
	k := kernels.NewPageRank(sp, 0.85, 3)
	mustRun(t, e, k, 0)
	if st := pool.Stats(); st.Resident != n || st.Evictions != 0 {
		t.Fatalf("after the cold run the pool holds %d of %d pages, %d evicted", st.Resident, n, st.Evictions)
	}
	carried := slices.Clone(e.device[0].Pages())
	warm := mustRun(t, e, k, 0)
	if warm.ResidentAtStart != int64(len(carried)) || len(carried) != n/4 {
		t.Fatalf("the warm run started with %d resident pages, the device carried %d, want %d", warm.ResidentAtStart, len(carried), n/4)
	}
	if warm.PoolLoads != 0 {
		t.Errorf("the warm run loaded %d pages from storage", warm.PoolLoads)
	}
	if st := pool.Stats(); st.Evictions != int64(len(carried)) || st.Resident != n-len(carried) {
		t.Fatalf("pool after the warm run: %d evictions, %d resident; want %d and %d", st.Evictions, st.Resident, len(carried), n-len(carried))
	}
	for _, pid := range carried {
		if slices.Contains(pool.ResidentPIDs(), pid) {
			t.Fatalf("page %d is on the device and still in the pool", pid)
		}
	}
}
