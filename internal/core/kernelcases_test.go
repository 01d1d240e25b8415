package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// kernelCase binds a kernel constructor to a deterministic byte encoding of
// its final state, so two runs can be compared bit-for-bit without reaching
// into kernel internals.
type kernelCase struct {
	name string
	make func(sp *slottedpage.Graph) kernels.Kernel
	enc  func(k kernels.Kernel, st kernels.State) []byte
}

func encodeVec(t any) []byte {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, t); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// kernelCases lists every built-in kernel. Tests index it by position.
func kernelCases() []kernelCase {
	return []kernelCase{
		{"BFS",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewBFS(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.BFS).Levels(st)) }},
		{"SSSP",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewSSSP(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.SSSP).Distances(st)) }},
		{"PageRank",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewPageRank(sp, 0.85, 5) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.PageRank).Ranks(st)) }},
		{"CC",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewCC(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.CC).Components(st)) }},
		{"BC",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewBC(sp) },
			func(k kernels.Kernel, st kernels.State) []byte {
				return encodeVec(k.(*kernels.BC).Centrality(st, 0))
			}},
		{"Neighborhood",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewNeighborhood(sp, 3) },
			func(k kernels.Kernel, st kernels.State) []byte {
				return encodeVec(k.(*kernels.BFS).Levels(st))
			}},
		{"CrossEdges",
			func(sp *slottedpage.Graph) kernels.Kernel {
				return kernels.NewCrossEdges(sp, func(v uint64) bool { return v%2 == 0 })
			},
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.CrossEdges).Total(st)) }},
		{"RWR",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewRWR(sp, 0.15, 5) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.PageRank).Ranks(st)) }},
		{"DegreeDist",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewDegreeDist(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.DegreeDist).Degrees(st)) }},
		{"KCore",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewKCore(sp, 3) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.KCore).InCore(st)) }},
		{"Radius",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewRadius(sp, 4, 8) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.Radius).Radii(st)) }},
		// The direction-optimizing BFS, in every direction mode: adaptive
		// switching, forced push, and forced pull must each agree with the
		// plain BFS above (TestDirOptMatchesPlainKernels).
		{"BFS-diropt",
			func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewDirBFS(sp) },
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.DirBFS).Levels(st)) }},
		{"BFS-diropt-push",
			func(sp *slottedpage.Graph) kernels.Kernel {
				k := kernels.NewDirBFS(sp)
				k.SetMode(kernels.DirForcePush)
				return k
			},
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.DirBFS).Levels(st)) }},
		{"BFS-diropt-pull",
			func(sp *slottedpage.Graph) kernels.Kernel {
				k := kernels.NewDirBFS(sp)
				k.SetMode(kernels.DirForcePull)
				return k
			},
			func(k kernels.Kernel, st kernels.State) []byte { return encodeVec(k.(*kernels.DirBFS).Levels(st)) }},
	}
}

// runDigest executes one kernel run and returns the encoded final state
// plus the Report.
func runDigest(t *testing.T, sp *slottedpage.Graph, kc kernelCase, opts Options, gpus, ssds int) ([]byte, *Report) {
	t.Helper()
	k := kc.make(sp)
	rep := mustRun(t, newEngine(t, sp, opts, gpus, ssds), k, 0)
	return kc.enc(k, rep.State), rep
}
