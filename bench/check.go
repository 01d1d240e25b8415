package main

import (
	"fmt"
	"math"

	"repro/internal/csr"
	"repro/internal/kernels"
	"repro/internal/verify"
)

// damping is the PageRank damping factor of every workload and reference.
const damping = 0.85

func refBFS(g *csr.Graph, src uint64) []int16 { return verify.BFS(g, uint32(src)) }

func refSSSP(g *csr.Graph, src uint64) []float64 {
	return verify.SSSP(g, uint32(src), kernels.Weight)
}

// fnv-1a, one element per step.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashI16(xs []int16) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = (h ^ uint64(uint16(x))) * fnvPrime
	}
	return h
}

func hashU32(xs []uint32) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = (h ^ uint64(x)) * fnvPrime
	}
	return h
}

func hashF32(xs []float32) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = (h ^ uint64(math.Float32bits(x))) * fnvPrime
	}
	return h
}

func checkEqual[T comparable](what string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d %ss, reference has %d", len(got), what, len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d: %s %v, reference %v", v, what, got[v], want[v])
		}
	}
	return nil
}

// checkSSSP compares float32 engine distances with the float64 Dijkstra
// reference: exactly, because the synthetic weights are small integers.
func checkSSSP(got []float32, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d distances, reference has %d", len(got), len(want))
	}
	for v := range want {
		g := float64(got[v])
		if got[v] == math.MaxFloat32 {
			g = math.Inf(1)
		}
		if g != want[v] {
			return fmt.Errorf("vertex %d: distance %v, reference %v", v, got[v], want[v])
		}
	}
	return nil
}

// checkPageRank compares float32 engine ranks with the float64 reference
// within 1e-9 absolute plus 1e-4 relative: a typical rank is 1/|V| and meets
// the absolute bound, while a hub's rank sums thousands of float32 terms and
// carries their rounding.
func checkPageRank(got []float32, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranks, reference has %d", len(got), len(want))
	}
	for v := range want {
		if d := math.Abs(float64(got[v]) - want[v]); d > 1e-9+1e-4*want[v] || math.IsNaN(d) {
			return fmt.Errorf("vertex %d: rank %v, reference %v (off by %.3g)", v, got[v], want[v], d)
		}
	}
	return nil
}

func hashI32(xs []int32) uint64 {
	h := uint64(fnvOffset)
	for _, x := range xs {
		h = (h ^ uint64(uint32(x))) * fnvPrime
	}
	return h
}
