package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestResidentRA pins newMember's RA rule on both of its sides, for the two
// full scans that read RA. On a one-GPU in-memory machine with room for the
// topology beside WA + RA, the RA stays on the device: the cold run's copies
// carry topology only, and a warm run, which finds every page cached, moves
// WA + RA to the device once and streams nothing. One byte less and RA
// streams with every page again; so it does on a device of half the
// topology and on two GPUs, which keep their timings to the tick. Every
// machine computes the same bytes, but Strategy-P on two GPUs, whose replica
// merge sums in another order.
func TestResidentRA(t *testing.T) {
	sp := buildPages(t, rmatGraph(t))
	pageSize, topo := int64(sp.Config().PageSize), sp.TopologyBytes()
	probe := newEngine(t, sp, Options{Streams: 4}, 1, 0)
	// oneGPU is a one-GPU machine with free bytes beside the stream
	// buffers and a WA of wa bytes.
	oneGPU := func(wa, free int64) hw.MachineSpec {
		spec := hw.Workstation(1, 0)
		spec.GPUs[0].DeviceMemory = probe.streamBufBytes(4) + wa + free
		return spec
	}
	// Elapsed and LevelBytes on the device of half the topology, and on
	// Strategy-P and Strategy-S over two GPUs. PageRank and RWR read alike
	// here: 5 iterations, 4 bytes of RA per vertex, the same page cycles.
	elapsed := []sim.Time{2318373, 1269550, 2259497}
	levelBytes := [][]int64{
		{180228, 94212, 94212, 94212, 94212},
		{180228, 8196, 8196, 8196, 8196},
		{360456, 16392, 16392, 16392, 16392},
	}
	cases := kernelCases()
	for _, kc := range []kernelCase{cases[2], cases[7]} { // PageRank, RWR
		t.Run(kc.name, func(t *testing.T) {
			run := func(e *Engine) ([]byte, *Report) {
				t.Helper()
				k := kc.make(sp)
				rep := mustRun(t, e, k, 0)
				return kc.enc(k, rep.State), rep
			}
			onSpec := func(spec hw.MachineSpec, strategy Strategy) *Engine {
				t.Helper()
				e, err := New(spec, sp, Options{Streams: 4, Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			ra := int64(sp.NumVertices()) * kernels.RAPerVertex(kc.make(sp))

			e := newEngine(t, sp, Options{Streams: 4}, 1, 0)
			want, cold := run(e)
			wa := cold.WABytes
			if got := wa + ra + cold.PagesStreamed*pageSize; cold.BytesToGPU != got {
				t.Errorf("cold run moved %d bytes to the GPU, want WA + RA + %d pages = %d", cold.BytesToGPU, cold.PagesStreamed, got)
			}
			res, warm := run(e)
			if !bytes.Equal(res, want) {
				t.Error("the warm run's result differs from the cold run's")
			}
			if warm.BytesToGPU != wa+ra || warm.PagesStreamed != 0 || warm.TransferTime != 0 {
				t.Errorf("warm run: %d bytes to the GPU, %d pages streamed, transfer %v; want WA + RA = %d, 0, 0",
					warm.BytesToGPU, warm.PagesStreamed, warm.TransferTime, wa+ra)
			}

			// The topology clause at its edge: exactly room for the topology
			// beside RA keeps RA resident, one byte less streams it per page.
			for _, edge := range []struct {
				free     int64
				resident bool
			}{{topo + ra, true}, {topo + ra - 1, false}} {
				res, rep := run(onSpec(oneGPU(wa, edge.free), StrategyP))
				perPage := rep.BytesToGPU - wa - rep.PagesStreamed*pageSize
				if !bytes.Equal(res, want) || (perPage == ra) != edge.resident {
					t.Errorf("free %d beside WA: RA bytes %d past the topology (RA %d), resident %v", edge.free, perPage, ra, edge.resident)
				}
			}

			for i, pp := range []struct {
				name     string
				e        *Engine
				sameBits bool
			}{
				{"half-device", onSpec(oneGPU(wa, topo/2), StrategyP), true},
				{"P-2gpu", onSpec(hw.Workstation(2, 0), StrategyP), false},
				{"S-2gpu", onSpec(hw.Workstation(2, 0), StrategyS), true},
			} {
				res, rep := run(pp.e)
				if pp.sameBits && !bytes.Equal(res, want) {
					t.Errorf("%s: result differs from the resident-RA run's", pp.name)
				}
				if rep.Elapsed != elapsed[i] || !slices.Equal(rep.LevelBytes, levelBytes[i]) {
					t.Errorf("%s: Elapsed %d, LevelBytes %v; want %d, %v", pp.name, rep.Elapsed, rep.LevelBytes, elapsed[i], levelBytes[i])
				}
			}
		})
	}
}
