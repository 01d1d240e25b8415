package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/graphgen"
	"repro/internal/hw"
	"repro/internal/kernels"
)

// chaosPlan injects every fault kind: transfer errors and stalls, storage
// read errors, page corruption, and one device OOM at the tenth kernel
// launch. Rates are low enough that the retry budget (5 attempts) always
// wins for this seed.
func chaosPlan() *fault.Plan {
	return &fault.Plan{
		Seed:              42,
		TransferErrorRate: 0.05,
		TransferStallRate: 0.05,
		StorageErrorRate:  0.05,
		CorruptionRate:    0.10,
		OOMKernelLaunches: []int64{10},
	}
}

// TestBFSByteIdenticalUnderFaults is the acceptance test for the fault
// layer: a run that absorbs transfer errors, storage errors, page
// corruption, and a device OOM must produce results byte-identical to a
// fault-free run — faults cost virtual time, never correctness.
func TestBFSByteIdenticalUnderFaults(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	k := kernels.NewBFS(sp)
	clean := mustRun(t, newEngine(t, sp, Options{}, 1, 1), k, 0)
	cleanLevels := append([]int16(nil), k.Levels(clean.State)...)
	if clean.Faults.Injected() != 0 {
		t.Fatalf("fault-free run reports injections: %+v", clean.Faults)
	}

	k2 := kernels.NewBFS(sp)
	faulted := mustRun(t, newEngine(t, sp, Options{Faults: chaosPlan()}, 1, 1), k2, 0)
	got := k2.Levels(faulted.State)
	for v := range cleanLevels {
		if got[v] != cleanLevels[v] {
			t.Fatalf("vertex %d level = %d under faults, want %d", v, got[v], cleanLevels[v])
		}
	}

	fs := faulted.Faults
	if fs.Injected() == 0 {
		t.Fatal("chaos plan injected nothing — the test is vacuous")
	}
	if fs.DeviceOOMs != 1 {
		t.Errorf("DeviceOOMs = %d, want 1", fs.DeviceOOMs)
	}
	if fs.Degradations != 1 {
		t.Errorf("Degradations = %d, want 1 (OOM should spill the page cache)", fs.Degradations)
	}
	if fs.Retries == 0 || fs.Recoveries == 0 {
		t.Errorf("no recovery activity: %+v", fs)
	}
	if faulted.Elapsed <= clean.Elapsed {
		t.Errorf("faulted run (%v) not slower than clean run (%v)", faulted.Elapsed, clean.Elapsed)
	}
}

// TestPageRankByteIdenticalUnderFaults repeats the acceptance check for an
// iterative (non-traversal) kernel, where per-iteration WA copy-backs add
// more faultable transfers.
func TestPageRankByteIdenticalUnderFaults(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	k := kernels.NewPageRank(sp, 0.85, 5)
	clean := mustRun(t, newEngine(t, sp, Options{}, 1, 1), k, 0)
	cleanRanks := append([]float32(nil), k.Ranks(clean.State)...)

	k2 := kernels.NewPageRank(sp, 0.85, 5)
	faulted := mustRun(t, newEngine(t, sp, Options{Faults: chaosPlan()}, 1, 1), k2, 0)
	got := k2.Ranks(faulted.State)
	for v := range cleanRanks {
		if got[v] != cleanRanks[v] { // exact: recovery must not re-apply updates
			t.Fatalf("vertex %d rank = %v under faults, want %v (bit-exact)", v, got[v], cleanRanks[v])
		}
	}
	if faulted.Faults.Injected() == 0 {
		t.Fatal("chaos plan injected nothing")
	}
}

// TestFaultReplayIsDeterministic: the same plan against the same engine
// configuration must inject the same faults and cost the same virtual time.
func TestFaultReplayIsDeterministic(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	run := func() (*Report, []int16) {
		k := kernels.NewBFS(sp)
		rep := mustRun(t, newEngine(t, sp, Options{Faults: chaosPlan()}, 2, 2), k, 0)
		return rep, k.Levels(rep.State)
	}
	a, al := run()
	b, bl := run()
	if a.Faults != b.Faults {
		t.Fatalf("fault stats diverged across replays:\n  %+v\n  %+v", a.Faults, b.Faults)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("virtual time diverged across replays: %v vs %v", a.Elapsed, b.Elapsed)
	}
	for v := range al {
		if al[v] != bl[v] {
			t.Fatalf("results diverged at vertex %d", v)
		}
	}
}

// TestPersistentTransferFaultAborts: a rate-1 transfer fault exhausts the
// retry budget and surfaces as ErrHardwareFault, not a hang or a panic.
func TestPersistentTransferFaultAborts(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	plan := &fault.Plan{Seed: 1, TransferErrorRate: 1}
	e := newEngine(t, sp, Options{Faults: plan}, 1, 0)
	_, err := e.RunJob(SharedJob{Kernel: kernels.NewBFS(sp)})
	if !errors.Is(err, ErrHardwareFault) {
		t.Fatalf("persistent transfer fault: err = %v, want ErrHardwareFault", err)
	}
}

// TestPersistentStorageFaultAborts: same give-up path through the storage
// read + checksum machinery.
func TestPersistentStorageFaultAborts(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	plan := &fault.Plan{Seed: 1, StorageErrorRate: 1}
	e := newEngine(t, sp, Options{Faults: plan}, 1, 1)
	_, err := e.RunJob(SharedJob{Kernel: kernels.NewBFS(sp)})
	if !errors.Is(err, ErrHardwareFault) {
		t.Fatalf("persistent storage fault: err = %v, want ErrHardwareFault", err)
	}
}

// TestBoundedFaultBurstRecovers: a persistent-looking fault capped by
// MaxPerKind lets recovery finish the run with correct results.
func TestBoundedFaultBurstRecovers(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	k := kernels.NewBFS(sp)
	clean := mustRun(t, newEngine(t, sp, Options{}, 1, 0), k, 0)
	cleanLevels := append([]int16(nil), k.Levels(clean.State)...)

	plan := &fault.Plan{Seed: 3, TransferErrorRate: 1, MaxPerKind: 3}
	k2 := kernels.NewBFS(sp)
	rep := mustRun(t, newEngine(t, sp, Options{Faults: plan}, 1, 0), k2, 0)
	if rep.Faults.TransferErrors != 3 {
		t.Errorf("TransferErrors = %d, want 3 (capped)", rep.Faults.TransferErrors)
	}
	if rep.Faults.Recoveries == 0 {
		t.Error("no recoveries recorded")
	}
	got := k2.Levels(rep.State)
	for v := range cleanLevels {
		if got[v] != cleanLevels[v] {
			t.Fatalf("vertex %d level = %d after burst, want %d", v, got[v], cleanLevels[v])
		}
	}
}

// TestInvalidFaultPlanRejected: plan validation happens at engine
// construction, before any simulation starts.
func TestInvalidFaultPlanRejected(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	bad := &fault.Plan{TransferErrorRate: 2}
	if _, err := New(hw.Workstation(1, 0), sp, Options{Faults: bad}); err == nil {
		t.Fatal("engine accepted an out-of-range fault plan")
	}
}

// TestDeviceCarriesWhatOOMLeft: the device outlives a run that an injected
// device OOM degraded. The OOM hits the run's last kernel launch, after
// every page was admitted, and halves the cache; the next run starts with
// the half that was left and re-grows the budget, so it ends holding every
// page again. Recovered (one OOM, the relaunch succeeds) or not (the OOM
// persists through the retry budget, shrinking the cache at each retry, and
// the job fails), every successful run's ranks are the fault-free run's.
//
// The last launch's ordinal is the clean run's launch count. The graph has
// fewer pages than the machine has streams, so a warm wave opens one launch
// per page, all before any page is done, and no page the OOM evicts is
// served again in that run.
func TestDeviceCarriesWhatOOMLeft(t *testing.T) {
	ds, _ := graphgen.ByName("RMAT27")
	sp := buildPages(t, ds.MustGenerate(27-10)) // 22 pages, 32 streams
	n := sp.NumPages()
	opts := Options{CacheBytes: int64(n) * int64(sp.Config().PageSize)}
	k := kernels.NewPageRank(sp, 0.85, 3)
	clean, last := runCountingLaunches(t, newEngine(t, sp, opts, 1, 0), SharedJob{Kernel: k})
	want := append([]float32(nil), k.Ranks(clean.State)...)
	for _, tc := range []struct {
		name  string
		ooms  []int64
		left  int // pages the degraded run leaves resident
		fails bool
	}{
		{"recovered", []int64{last}, n / 2, false},
		{"exhausted", []int64{last, last + 1, last + 2, last + 3, last + 4}, n / 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faulted := opts
			faulted.Faults = &fault.Plan{OOMKernelLaunches: tc.ooms}
			e := newEngine(t, sp, faulted, 1, 0)
			rep, err := e.RunJob(SharedJob{Kernel: k})
			if tc.fails != (err != nil) {
				t.Fatalf("degraded run: err = %v, want failure %v", err, tc.fails)
			}
			if err == nil {
				if rep.Faults.Degradations != 1 {
					t.Fatalf("%d degradations, want 1", rep.Faults.Degradations)
				}
				if !slices.Equal(k.Ranks(rep.State), want) {
					t.Fatal("the degraded run's ranks differ from the fault-free run's")
				}
			}
			if got := e.device[0].Len(); got != tc.left {
				t.Fatalf("the degraded run left %d pages resident, want %d", got, tc.left)
			}
			// The next run is fault-free, on the device the degraded run left.
			clean := newEngine(t, sp, opts, 1, 0)
			clean.device = e.device
			e = clean
			next := mustRun(t, e, k, 0)
			if next.ResidentAtStart != int64(tc.left) {
				t.Errorf("the next run started with %d resident pages, want %d", next.ResidentAtStart, tc.left)
			}
			if got := e.device[0].Len(); got != n {
				t.Errorf("the next run ended with %d of %d pages resident: its budget did not re-grow", got, n)
			}
			if !slices.Equal(k.Ranks(next.State), want) {
				t.Error("the next run's ranks differ from the fault-free run's")
			}
		})
	}
}
