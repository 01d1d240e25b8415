package kernels

import (
	"slices"

	"repro/internal/slottedpage"
)

// CC implements connected components (weakly connected, since the slotted
// page stores out-edges) by iterative label propagation, a PageRank-like
// full-scan algorithm in the paper's taxonomy: every iteration streams the
// whole topology and propagates the minimum component label across each
// edge in both directions until a fixpoint.
//
// The state is one label vector (4 bytes/vertex) that page kernels read and
// lower in place, the way a GPU's atomicMin does (Gunrock's CC), so a label
// can cross many edges in one scan. Table 4 lists 8 bytes for CC, a previous
// and a next vector (EXPERIMENTS.md, Known divergence 12). Min-label
// propagation has one fixpoint per weakly connected component, so the labels
// equal the double-buffered run's, reached in no more iterations.
type CC struct {
	g    *slottedpage.Graph
	cost costParams
}

// NewCC returns a connected-components kernel over g.
func NewCC(g *slottedpage.Graph) *CC {
	return &CC{g: g, cost: costParams{laneCycles: 110, slotCycles: 50}}
}

type ccState struct{ labels []uint32 }

func (s *ccState) WABytes() int64 { return int64(len(s.labels)) * 4 }
func (s *ccState) Clone() State   { return &ccState{labels: slices.Clone(s.labels)} }
func ccLabels(st State) []uint32  { return st.(*ccState).labels }

// NewState implements Kernel.
func (k *CC) NewState() State { return &ccState{labels: make([]uint32, k.g.NumVertices())} }

// Init implements Kernel: every vertex starts in its own component.
func (k *CC) Init(st State, _ uint64) {
	labels := ccLabels(st)
	for i := range labels {
		labels[i] = uint32(i)
	}
}

// Run is CC's K_SP and K_LP (Appendix D): propagate labels across each edge
// in both directions — the neighbor inherits the vertex's label and vice
// versa, whichever is smaller.
func (k *CC) Run(a *Args) Result {
	labels := ccLabels(a.State)
	var res Result
	w := WalkPage(a)
	for w.Next() {
		pos, end, _ := w.Record()
		RelaxMin(a, labels, w.V, pos, end, &res)
	}
	return k.cost.done(a, &w, res)
}

// RelaxMin lowers labels across each entry of vid's record at [pos, end) in
// a's page, both ways: the neighbor takes vid's label and vid the
// neighbor's, whichever is smaller, each only where a's GPU owns the entry.
// It reads the labels it writes, so a label lowered earlier in the scan
// travels on at once. CC and incremental CC share it.
func RelaxMin(a *Args, labels []uint32, vid uint64, pos, end int, res *Result) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	ownsV := a.owns(vid)
	for w := dec.Width(); pos < end; pos += w {
		nvid, _ := dec.VID(buf, pos)
		cv, cn := labels[vid], labels[nvid]
		if cv < cn && a.owns(nvid) {
			labels[nvid] = cv
			res.Updates++
			res.Active = true
		} else if cn < cv && ownsV {
			labels[vid] = cn
			res.Updates++
			res.Active = true
		}
	}
}

// MergeStates implements Kernel: labels merge by minimum.
func (k *CC) MergeStates(sts []State) { Merge(sts, ccLabels, Min) }

// EndIteration implements ScanKernel: the fixpoint is reached when an
// iteration applies no update.
func (k *CC) EndIteration(_ []State, active bool) bool { return active }

// Components exposes the final label vector.
func (k *CC) Components(st State) []uint32 { return ccLabels(st) }
