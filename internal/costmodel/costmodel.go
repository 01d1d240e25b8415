// Package costmodel implements the analytic cost models of the paper's §5:
// Eq. 1 for PageRank-like full-scan algorithms and Eq. 2 for BFS-like
// traversals. The models predict elapsed time from data sizes and machine
// rates; the tests cross-check them against the event simulation the same
// way §7.5 sanity-checks measured times against back-of-envelope numbers
// (e.g. 114 GB x 10 iterations / 6 GB/s ~ 190 s).
package costmodel

import (
	"repro/internal/hw"
	"repro/internal/sim"
)

// Inputs gathers the quantities both equations consume.
type Inputs struct {
	// WABytes is |WA|: device-resident attribute bytes.
	WABytes int64
	// RABytes is |RA|: read-only attribute bytes (whole graph), which Eq. 1
	// streams with the pages every iteration. The engine keeps RA resident
	// on a one-GPU device with room for it and pays it once per run instead.
	RABytes int64
	// SPBytes and LPBytes are the small/large topology page totals.
	SPBytes int64
	LPBytes int64
	// NumSP and NumLP are the page counts (S and L).
	NumSP int64
	NumLP int64
	// GPUs is N.
	GPUs int
	// KernelPageTime is t_kernel(SP_|1| + LP_|1|): the execution time of
	// the final small and large page kernels that nothing can hide.
	KernelPageTime sim.Time
	// CallOverhead is the per-kernel-call overhead behind t_call.
	CallOverhead sim.Time
	// SyncTime is t_sync(N).
	SyncTime sim.Time
}

// PageRankLike evaluates Eq. 1 for one full-scan iteration:
//
//	2|WA|/c1 + (|RA|+|SP|+|LP|)/(c2*N) + t_call((S+L)/N)
//	  + t_kernel(SP_1 + LP_1) + t_sync(N)
func PageRankLike(in Inputs, pcie hw.PCIeSpec) sim.Time {
	n := int64(in.GPUs)
	t := 2 * sim.ByteTime(in.WABytes, pcie.ChunkRate)
	t += sim.ByteTime((in.RABytes+in.SPBytes+in.LPBytes)/n, pcie.StreamRate)
	t += sim.Time((in.NumSP + in.NumLP) / n * int64(in.CallOverhead))
	t += in.KernelPageTime
	t += in.SyncTime
	return t
}

// LevelInputs describes one traversal level for Eq. 2.
type LevelInputs struct {
	// RABytes, SPBytes, LPBytes cover only the pages visited at this level
	// (RA{l}, SP{l}, LP{l}).
	RABytes int64
	SPBytes int64
	LPBytes int64
	// NumSP and NumLP are the visited page counts (S{l}, L{l}).
	NumSP int64
	NumLP int64
}

// BFSLike evaluates Eq. 2 over a traversal:
//
//	2|WA|/c1 + sum over levels of
//	  ( (|RA{l}|+|SP{l}|+|LP{l}|) / (c2*N*d_skew) * (1-r_hit)
//	    + t_call((S{l}+L{l}) / (N*d_skew)) )
//
// dskew in (0,1] is the workload balance across GPUs (1 = perfectly
// balanced) and rhit in [0,1] the page-cache hit rate (B/(S+L) for a cache
// of B pages, §3.3).
func BFSLike(waBytes int64, levels []LevelInputs, gpus int, dskew, rhit float64, callOverhead sim.Time, pcie hw.PCIeSpec) sim.Time {
	if dskew <= 0 {
		dskew = 1
	}
	t := 2 * sim.ByteTime(waBytes, pcie.ChunkRate)
	div := float64(gpus) * dskew
	for _, l := range levels {
		bytes := float64(l.RABytes+l.SPBytes+l.LPBytes) * (1 - rhit) / div
		t += sim.ByteTime(int64(bytes), pcie.StreamRate)
		calls := float64(l.NumSP+l.NumLP) / div * (1 - rhit)
		t += sim.Time(calls * float64(callOverhead))
	}
	return t
}
