package hw

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

func testMachine(t *testing.T, gpus, ssds int) (*Machine, *sim.Env) {
	t.Helper()
	env := sim.NewEnv()
	m, err := NewMachine(env, Workstation(gpus, ssds), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return m, env
}

func TestSpecPresets(t *testing.T) {
	spec := Workstation(2, 2)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(spec.GPUs) != 2 || spec.GPUs[0].DeviceMemory != 12<<30 {
		t.Error("TITAN X preset wrong")
	}
	if spec.PCIe.ChunkRate != 16e9 || spec.PCIe.StreamRate != 6e9 {
		t.Error("PCI-E rates differ from paper's c1/c2")
	}
	if len(spec.Storage) != 2 || spec.Storage[0].Kind != SSD {
		t.Error("SSD preset wrong")
	}
	hdd := WorkstationHDD(1, 2)
	if len(hdd.Storage) != 2 || hdd.Storage[0].Kind != HDD {
		t.Error("HDD preset wrong")
	}
	if SSD.String() != "SSD" || HDD.String() != "HDD" {
		t.Error("StorageKind.String wrong")
	}
}

func TestSpecValidateRejectsBad(t *testing.T) {
	bad := Workstation(1, 1)
	bad.GPUs = nil
	if bad.Validate() == nil {
		t.Error("no-GPU spec validated")
	}
	bad2 := Workstation(1, 1)
	bad2.PCIe.StreamRate = 0
	if bad2.Validate() == nil {
		t.Error("zero-rate PCI-E validated")
	}
	bad3 := Workstation(1, 1)
	bad3.MainMemory = 0
	if bad3.Validate() == nil {
		t.Error("zero-memory spec validated")
	}
}

func TestScaleDividesCapacitiesOnly(t *testing.T) {
	s := Workstation(2, 2).Scale(1 << 10)
	if s.GPUs[0].DeviceMemory != (12<<30)/1024 {
		t.Errorf("GPU mem = %d", s.GPUs[0].DeviceMemory)
	}
	if s.MainMemory != (128<<30)/1024 {
		t.Errorf("main mem = %d", s.MainMemory)
	}
	if s.PCIe.StreamRate != 6e9 || s.Storage[0].SeqRead != 2.5e9 {
		t.Error("bandwidths must not scale")
	}
	if s.PCIe.Latency != PCIe3x16().Latency/1024 || s.Storage[0].Latency != FusionIOSSD().Latency/1024 {
		t.Error("fixed latencies must scale with capacities")
	}
	// Original untouched.
	if Workstation(2, 2).GPUs[0].DeviceMemory != 12<<30 {
		t.Error("Scale mutated its receiver")
	}
}

func TestGPUMemoryAccounting(t *testing.T) {
	m, _ := testMachine(t, 1, 0)
	g := m.GPUs[0]
	if err := g.Alloc(10 << 30); err != nil {
		t.Fatal(err)
	}
	if g.MemFree() != 2<<30 {
		t.Errorf("MemFree = %d", g.MemFree())
	}
	err := g.Alloc(4 << 30)
	if !errors.Is(err, ErrOutOfDeviceMemory) {
		t.Errorf("overalloc err = %v", err)
	}
	g.Free(10 << 30)
	if g.MemUsed() != 0 {
		t.Errorf("MemUsed = %d", g.MemUsed())
	}
}

func TestGPUCopyRates(t *testing.T) {
	m, env := testMachine(t, 1, 0)
	g := m.GPUs[0]
	var chunkT, streamT sim.Time
	env.Process("p", func(p *sim.Proc) {
		t0 := env.Now()
		g.CopyChunkIn(p, 16e9) // 1 s at c1
		chunkT = env.Now() - t0
		t0 = env.Now()
		g.CopyStreamIn(p, 6e9) // 1 s at c2
		streamT = env.Now() - t0
	})
	env.MustRun()
	want := sim.Second + 10*sim.Microsecond
	if chunkT != want {
		t.Errorf("chunk copy took %v, want %v", chunkT, want)
	}
	if streamT != want {
		t.Errorf("stream copy took %v, want %v", streamT, want)
	}
	st := g.Stats()
	if st.H2DBytes != 16e9+6e9 {
		t.Errorf("H2DBytes = %d", st.H2DBytes)
	}
}

func TestGPUTransfersSerializeButOverlapKernels(t *testing.T) {
	// Paper §3.2: copies cannot overlap each other but overlap kernels.
	m, env := testMachine(t, 1, 0)
	g := m.GPUs[0]
	var end sim.Time
	grp := sim.NewGroup(env)
	grp.Add(2)
	perKernel := g.Spec.CyclesPerSec / float64(g.Spec.KernelConcurrency)
	for i := 0; i < 2; i++ {
		env.Process("stream", func(p *sim.Proc) {
			g.CopyStreamIn(p, 6e9)       // 1 s on the shared engine
			g.LaunchKernel(p, perKernel) // 1 s of compute
			grp.Done()
		})
	}
	env.Process("join", func(p *sim.Proc) {
		grp.Wait(p)
		end = env.Now()
	})
	env.MustRun()
	// Copies at [0,1] and [1,2]; kernels at [1,2] and [2,3] (+epsilons).
	lo, hi := 3*sim.Second, 3*sim.Second+sim.Millisecond
	if end < lo || end > hi {
		t.Errorf("end = %v, want ~3s (copy/kernel overlap)", end)
	}
	// The copy engine's busy-time accounting proves the serialization
	// directly: two 1-second copies keep the H2D engine busy for exactly
	// 2 s, while 2 s of kernel time fits in the same 3 s window — so one
	// kernel-second overlapped a copy-second.
	st := g.Stats()
	if st.H2DBusy < 2*sim.Second || st.H2DBusy > 2*sim.Second+sim.Millisecond {
		t.Errorf("H2D busy = %v, want ~2s (copies must serialize on the engine)", st.H2DBusy)
	}
	if st.D2HBusy != 0 {
		t.Errorf("D2H busy = %v, want 0 (no device-to-host traffic)", st.D2HBusy)
	}
	if st.KernelTime < 2*sim.Second {
		t.Errorf("kernel time = %v, want >= 2s", st.KernelTime)
	}
	if overlap := st.H2DBusy + st.KernelTime - end; overlap < sim.Second-sim.Millisecond {
		t.Errorf("copy/kernel overlap = %v, want ~1s", overlap)
	}
}

func TestGPUPeerCopyFasterThanHostPath(t *testing.T) {
	m, env := testMachine(t, 2, 0)
	var peerT, hostT sim.Time
	env.Process("p", func(p *sim.Proc) {
		t0 := env.Now()
		m.GPUs[0].CopyPeer(p, m.GPUs[1], 20e9)
		peerT = env.Now() - t0
		t0 = env.Now()
		m.GPUs[0].CopyOut(p, 20e9)
		hostT = env.Now() - t0
	})
	env.MustRun()
	if peerT >= hostT {
		t.Errorf("peer copy %v not faster than host copy %v", peerT, hostT)
	}
}

func TestConcurrentKernelsScaleUntilSaturation(t *testing.T) {
	// KernelConcurrency kernels run fully concurrently; one more queues.
	env := sim.NewEnv()
	m, err := NewMachine(env, Workstation(1, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	g := m.GPUs[0]
	kc := g.Spec.KernelConcurrency
	perKernel := g.Spec.CyclesPerSec / float64(kc) // 1 s each
	grp := sim.NewGroup(env)
	grp.Add(kc + 1)
	for i := 0; i < kc+1; i++ {
		env.Process("k", func(p *sim.Proc) {
			g.LaunchKernel(p, perKernel)
			grp.Done()
		})
	}
	var end sim.Time
	env.Process("join", func(p *sim.Proc) { grp.Wait(p); end = env.Now() })
	env.MustRun()
	// kc kernels in [0,1], the extra one in [1,2] (+launch overheads).
	if end < 2*sim.Second || end > 2*sim.Second+sim.Millisecond {
		t.Errorf("end = %v, want ~2s", end)
	}
}

func TestKernelLaunchOverheadOverlapsAcrossStreams(t *testing.T) {
	// With many tiny kernels, 4 streams must beat 1 stream because launch
	// overhead overlaps SM execution — the Figure 10 effect.
	elapsed := func(streams int) sim.Time {
		env := sim.NewEnv()
		m, err := NewMachine(env, Workstation(1, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		g := m.GPUs[0]
		const kernels = 64
		grp := sim.NewGroup(env)
		grp.Add(streams)
		for s := 0; s < streams; s++ {
			s := s
			env.Process("stream", func(p *sim.Proc) {
				for k := s; k < kernels; k += streams {
					g.LaunchKernel(p, g.Spec.CyclesPerSec/float64(g.Spec.KernelConcurrency)*1e-5) // 10 us kernels
				}
				grp.Done()
			})
		}
		var end sim.Time
		env.Process("join", func(p *sim.Proc) { grp.Wait(p); end = env.Now() })
		env.MustRun()
		return end
	}
	t1, t4 := elapsed(1), elapsed(4)
	if t4 >= t1 {
		t.Errorf("4 streams (%v) not faster than 1 stream (%v)", t4, t1)
	}
}

func TestDeviceSequentialVsRandom(t *testing.T) {
	env := sim.NewEnv()
	d := NewDevice(env, SATAHDD(), 0)
	var seqT, randT sim.Time
	env.Process("p", func(p *sim.Proc) {
		d.Read(p, 0, 165e6) // first read: random rate
		t0 := env.Now()
		d.Read(p, 165e6, 165e6) // continues: sequential, 1 s
		seqT = env.Now() - t0
		t0 = env.Now()
		d.Read(p, 0, 165e6) // seek back: random
		randT = env.Now() - t0
	})
	env.MustRun()
	if seqT >= randT {
		t.Errorf("sequential %v not faster than random %v", seqT, randT)
	}
	total, seq := d.Reads()
	if total != 3 || seq != 1 {
		t.Errorf("reads = %d/%d, want 3 total 1 sequential", total, seq)
	}
}

func TestArrayStriping(t *testing.T) {
	env := sim.NewEnv()
	a := NewArray(env, []StorageSpec{FusionIOSSD(), FusionIOSSD()}, 1<<20)
	if a.DeviceFor(0) != a.Devices[0] || a.DeviceFor(1) != a.Devices[1] || a.DeviceFor(2) != a.Devices[0] {
		t.Error("g(j) = j mod N striping broken")
	}
	if a.AggregateSeqRate() != 5e9 {
		t.Errorf("aggregate rate = %v", a.AggregateSeqRate())
	}
	env.Process("p", func(p *sim.Proc) {
		for pid := uint64(0); pid < 8; pid++ {
			a.ReadPage(p, pid)
		}
	})
	env.MustRun()
	if a.BytesRead() != 8<<20 {
		t.Errorf("BytesRead = %d", a.BytesRead())
	}
	// Consecutive pids on one device are laid out sequentially.
	_, seq := a.Devices[0].Reads()
	if seq != 3 {
		t.Errorf("device 0 sequential reads = %d, want 3", seq)
	}
}

func TestArrayParallelism(t *testing.T) {
	// Two devices serve interleaved pages twice as fast as one.
	read := func(devices int) sim.Time {
		env := sim.NewEnv()
		specs := make([]StorageSpec, devices)
		for i := range specs {
			specs[i] = FusionIOSSD()
		}
		a := NewArray(env, specs, 1<<26)
		grp := sim.NewGroup(env)
		grp.Add(8)
		for pid := uint64(0); pid < 8; pid++ {
			pid := pid
			env.Process("r", func(p *sim.Proc) {
				a.ReadPage(p, pid)
				grp.Done()
			})
		}
		var end sim.Time
		env.Process("join", func(p *sim.Proc) { grp.Wait(p); end = env.Now() })
		env.MustRun()
		return end
	}
	t1, t2 := read(1), read(2)
	if t2*2 > t1*11/10 {
		t.Errorf("2 devices (%v) not ~2x faster than 1 (%v)", t2, t1)
	}
}

func TestHostAccounting(t *testing.T) {
	h := NewHost(1000)
	if err := h.Alloc(900); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(h.Alloc(200), ErrOutOfMemory) {
		t.Error("overalloc accepted")
	}
	h.Free(900)
	if h.Used() != 0 || h.Capacity() != 1000 {
		t.Error("accounting broken")
	}
}

// TestPageCacheKeepsWhatItHolds pins the cache's policy: it admits while
// there is room, a full cache turns newcomers away instead of evicting, a
// lookup does not reorder anything, and Resize drops the most recently
// admitted pages first.
func TestPageCacheKeepsWhatItHolds(t *testing.T) {
	c := NewPageCache(3, 8)
	if c.Contains(1) {
		t.Error("empty cache hit")
	}
	for pid := uint64(1); pid <= 4; pid++ {
		c.Insert(pid)
	}
	if !c.Contains(1) || !c.Contains(2) || !c.Contains(3) || c.Contains(4) || c.Len() != 3 {
		t.Errorf("full cache must hold 1-3 and turn 4 away: 1=%v 2=%v 3=%v 4=%v len=%d",
			c.Contains(1), c.Contains(2), c.Contains(3), c.Contains(4), c.Len())
	}
	c.Contains(3) // must not make 3 any older or newer
	c.Resize(1)
	if !c.Contains(1) || c.Contains(2) || c.Contains(3) || c.Len() != 1 {
		t.Errorf("Resize(1) must keep only the first admitted page: 1=%v 2=%v 3=%v len=%d",
			c.Contains(1), c.Contains(2), c.Contains(3), c.Len())
	}
	c.Insert(5)
	if c.Contains(5) {
		t.Error("shrunk cache admitted past its new limit")
	}
	c.Resize(2)
	c.Insert(5)
	c.Insert(6)
	if !c.Contains(1) || !c.Contains(5) || c.Contains(6) || c.Len() != 2 {
		t.Errorf("regrown cache must admit up to its limit: 1=%v 5=%v 6=%v len=%d",
			c.Contains(1), c.Contains(5), c.Contains(6), c.Len())
	}
}

func TestPageCacheReinsertIsNoop(t *testing.T) {
	c := NewPageCache(2, 8)
	c.Insert(1)
	c.Insert(1)
	if c.Len() != 1 {
		t.Errorf("Len = %d after duplicate insert", c.Len())
	}
}

func TestNewMachineRequiresPageSizeWithStorage(t *testing.T) {
	env := sim.NewEnv()
	if _, err := NewMachine(env, Workstation(1, 2), 0); err == nil {
		t.Error("storage without page size accepted")
	}
	if m, err := NewMachine(env, Workstation(1, 0), 0); err != nil || m.Storage != nil {
		t.Error("no-storage machine must have nil Storage")
	}
}

// TestContinueKernel: work run inside an open launch takes the SM time a
// launch of the same cycles takes, but pays no launch overhead, draws no
// launch-time OOM and is not counted in KernelCalls.
func TestContinueKernel(t *testing.T) {
	env := sim.NewEnv()
	g := NewGPU(env, TitanX(), PCIe3x16(), 0)
	inj := fault.NewInjector(&fault.Plan{OOMKernelLaunches: []int64{2}})
	g.InjectFaults(inj)
	cycles := g.Spec.CyclesPerSec / float64(g.Spec.KernelConcurrency) * 1e-3 // 1 ms
	var launched, continued sim.Time
	var errs [2]error
	env.Process("stream", func(p *sim.Proc) {
		t0 := env.Now()
		errs[0] = g.LaunchKernel(p, cycles) // launch ordinal 1
		launched = env.Now() - t0
		t0 = env.Now()
		g.ContinueKernel(p, cycles)
		continued = env.Now() - t0
		errs[1] = g.LaunchKernel(p, cycles) // ordinal 2: the injected OOM
	})
	env.MustRun()
	run := g.KernelTime(cycles)
	if launched != g.Spec.LaunchOverhead+run || continued != run {
		t.Errorf("launch took %v, continuation %v; want %v + %v and %v", launched, continued, g.Spec.LaunchOverhead, run, run)
	}
	if errs[0] != nil || !errors.Is(errs[1], ErrOutOfDeviceMemory) || inj.Stats().DeviceOOMs != 1 {
		t.Errorf("launch errors %v; want the second launch, not the continuation, to draw ordinal 2", errs)
	}
	if st := g.Stats(); st.KernelCalls != 1 || st.KernelTime != 2*run {
		t.Errorf("KernelCalls %d, KernelTime %v; want 1 launch and %v", st.KernelCalls, st.KernelTime, 2*run)
	}
}

func TestThermalThrottle(t *testing.T) {
	env := sim.NewEnv()
	spec := TitanX()
	spec.ThermalLimit = 2 * sim.Second
	spec.ThermalFactor = 0.5
	g := NewGPU(env, spec, PCIe3x16(), 0)
	perKernel := spec.CyclesPerSec / float64(spec.KernelConcurrency) // 1 s kernels
	var first, late sim.Time
	env.Process("p", func(p *sim.Proc) {
		t0 := env.Now()
		g.LaunchKernel(p, perKernel)
		first = env.Now() - t0
		g.LaunchKernel(p, perKernel)
		g.LaunchKernel(p, perKernel) // crosses the 2 s limit
		t0 = env.Now()
		g.LaunchKernel(p, perKernel)
		late = env.Now() - t0
	})
	env.MustRun()
	if !g.Throttled() {
		t.Fatal("GPU never throttled")
	}
	if late*10 < first*19 {
		t.Errorf("throttled kernel %v not ~2x slower than cold kernel %v", late, first)
	}
}

func TestThermalDisabledByDefault(t *testing.T) {
	env := sim.NewEnv()
	g := NewGPU(env, TitanX(), PCIe3x16(), 0)
	env.Process("p", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			g.LaunchKernel(p, TitanX().CyclesPerSec)
		}
	})
	env.MustRun()
	if g.Throttled() {
		t.Error("throttle engaged with zero limit")
	}
}
