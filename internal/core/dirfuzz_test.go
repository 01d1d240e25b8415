package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/csr"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
	"repro/internal/verify"
)

// fuzzGraph decodes arbitrary fuzz bytes into a small directed graph: the
// first byte sizes the vertex set, the rest is consumed pairwise as
// (src, dst) edges. Any byte string decodes to a valid graph, so the
// fuzzer explores frontier shapes — empty levels, full levels, hubs,
// chains — rather than input validation.
func fuzzGraph(data []byte) *csr.Graph {
	nv := 2
	if len(data) > 0 {
		nv = 2 + int(data[0])%254
		data = data[1:]
	}
	var edges []csr.Edge
	for i := 0; i+1 < len(data) && len(edges) < 4096; i += 2 {
		edges = append(edges, csr.Edge{
			Src: uint32(int(data[i]) % nv),
			Dst: uint32(int(data[i+1]) % nv),
		})
	}
	return csr.MustFromEdges(nv, edges)
}

// chainBytes, starBytes and oscillatingBytes build seed corpus entries with
// adversarial frontier densities: a sparse chain keeps every frontier at
// one vertex (push stays optimal), a star saturates level 1 (pull wins
// immediately), and a chain of hubs oscillates between the two so the
// adaptive planner must switch direction repeatedly.
func chainBytes(n int) []byte {
	out := []byte{byte(n)}
	for i := 0; i+1 < n; i++ {
		out = append(out, byte(i), byte(i+1))
	}
	return out
}

func starBytes(n int) []byte {
	out := []byte{byte(n)}
	for i := 1; i < n; i++ {
		out = append(out, 0, byte(i))
	}
	return out
}

func oscillatingBytes(hubs, fan int) []byte {
	n := hubs * (fan + 1)
	out := []byte{byte(n)}
	for h := 0; h < hubs; h++ {
		hub := h * (fan + 1)
		for i := 1; i <= fan; i++ {
			out = append(out, byte(hub), byte(hub+i))
		}
		if h+1 < hubs {
			// One narrow bridge from the fan back down to the next hub.
			out = append(out, byte(hub+1), byte((h+1)*(fan+1)))
		}
	}
	return out
}

// FuzzDirectionSwitch feeds adversarial frontier densities through the
// direction-optimizing BFS and asserts push-only, pull-only, and adaptive
// runs all reproduce the plain kernel's levels, serially and in parallel.
// A divergence means the pull path's phase-stability argument (or the
// Beamer switch itself) broke for some frontier shape.
func FuzzDirectionSwitch(f *testing.F) {
	f.Add([]byte{1}, uint16(0))               // single vertex, no edges: frontier empties at level 0
	f.Add([]byte{8}, uint16(3))               // isolated vertices: nothing reachable
	f.Add(chainBytes(64), uint16(0))          // sparse frontiers: push-only territory
	f.Add(starBytes(120), uint16(0))          // level 1 is the whole graph: pull territory
	f.Add(oscillatingBytes(6, 30), uint16(0)) // hub fans force repeated direction switches
	f.Add(append(chainBytes(32), starBytes(32)[1:]...), uint16(5))

	f.Fuzz(func(t *testing.T, data []byte, src uint16) {
		g := fuzzGraph(data)
		source := uint64(src) % g.NumVertices()
		sp, err := slottedpage.Build(g, testConfig())
		if err != nil {
			t.Skip("unpageable fuzz graph")
		}

		plain := kernels.NewBFS(sp)
		rep := mustRun(t, newEngine(t, sp, Options{}, 1, 0), plain, source)
		want := encodeVec(plain.Levels(rep.State))

		for _, mode := range []kernels.DirMode{kernels.DirAuto, kernels.DirForcePush, kernels.DirForcePull} {
			k := kernels.NewDirBFS(sp)
			k.SetMode(mode)
			drep := mustRun(t, newEngine(t, sp, Options{}, 1, 0), k, source)
			if got := encodeVec(k.Levels(drep.State)); !bytes.Equal(got, want) {
				t.Errorf("mode=%v: levels diverge from plain BFS (graph %d vertices, %d edges, source %d)",
					mode, g.NumVertices(), g.NumEdges(), source)
			}
			// Superstep count is a schedule metric, not a value: pull
			// levels with no unvisited vertices left plan zero pages and
			// skip the trailing no-op superstep push executes, so depth
			// may come in one under the plain kernel's. Only the level
			// vector is pinned.
		}
	})
}

// FuzzSSSPStrategies runs SSSP over arbitrary graphs on 1-3 GPUs under
// Strategy-P or Strategy-S and asserts the distances equal the reference's.
// Strategy-P merges each superstep's replicas (distance and frontier bits
// together) and Strategy-S shares one state whose updates are bounded by
// ownership: a frontier encoding that loses a vertex in either shows up as
// a wrong or missing distance. Pages are 256 bytes, so even a small graph
// spans pages that Strategy-P deals out to different GPUs, and a hub's
// out-edges span a run of large pages.
func FuzzSSSPStrategies(f *testing.F) {
	f.Add(chainBytes(64), uint16(0), uint8(1), false)
	f.Add(starBytes(120), uint16(0), uint8(2), true)
	f.Add(oscillatingBytes(6, 30), uint16(0), uint8(3), false)
	f.Add(oscillatingBytes(4, 40), uint16(1), uint8(2), true)

	f.Fuzz(func(t *testing.T, data []byte, src uint16, gpus uint8, shared bool) {
		g := fuzzGraph(data)
		source := uint64(src) % g.NumVertices()
		sp, err := slottedpage.Build(g, slottedpage.ScaledConfig(2, 2, 256))
		if err != nil {
			t.Skip("unpageable fuzz graph")
		}
		opts := Options{Strategy: StrategyP}
		if shared {
			opts.Strategy = StrategyS
		}
		n := 1 + int(gpus)%3
		k := kernels.NewSSSP(sp)
		rep := mustRun(t, newEngine(t, sp, opts, n, 0), k, source)
		got := k.Distances(rep.State)
		for v, want := range verify.SSSP(g, uint32(source), kernels.Weight) {
			if math.IsInf(want, 1) && got[v] == math.MaxFloat32 || float64(got[v]) == want {
				continue
			}
			t.Fatalf("%d GPUs, %v: vertex %d dist %v, want %v (graph %d vertices, %d edges, source %d)",
				n, opts.Strategy, v, got[v], want, g.NumVertices(), g.NumEdges(), source)
		}
	})
}
