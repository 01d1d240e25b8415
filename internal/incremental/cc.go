package incremental

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// IncCC re-executes connected components from retained labels after an
// insert-only batch. Label propagation toward the minimum has a unique
// fixpoint per (weakly) connected component, and inserts only merge
// components: relaxing from the retained fixpoint with the new edges'
// endpoints seeded converges to exactly the labels a full run computes.
// Any delete can split a component — whose members would need their labels
// *raised*, which min-propagation cannot do — so PlanCC falls back.
//
// Like the full CC, IncCC lowers one label vector in place (kernels.RelaxMin),
// but it is frontier-driven where the full CC is a full scan: each round
// scans only vertices whose label changed last round plus their
// in-neighbors (which might now pull the lowered label), streaming just
// those vertices' pages.
type IncCC struct {
	g *slottedpage.Graph
	// rev is the graph's reverse index, fetched at the first changed
	// vertex, so a plan that changes none never builds it.
	rev  *slottedpage.Reverse
	init []uint32 // retained labels, extended, with seed relaxations applied
	cost incCost

	// plan state: snap starts at the retained labels before the seeds, so
	// the first plan scans every seeded vertex.
	snap []uint32
	scan *bitset.Set

	// Seeds is how many vertices the delta directly relabeled.
	Seeds int
}

type incCCState struct{ labels []uint32 }

func (s *incCCState) WABytes() int64       { return int64(len(s.labels)) * 4 }
func (s *incCCState) Clone() kernels.State { return &incCCState{labels: slices.Clone(s.labels)} }
func incLabels(st kernels.State) []uint32  { return st.(*incCCState).labels }

// PlanCC builds an incremental CC kernel, or reports a fallback reason
// (any delete in the chain). It seeds from every insert in d without looking
// for the edge in g, so d must end at g's snapshot: the delta Store.Lookup
// returns for g's epoch.
func PlanCC(g *slottedpage.Graph, e *Entry, d Delta) (*IncCC, string) {
	if e.Kind != KindCC {
		return nil, "wrong-kind"
	}
	n := g.NumVertices()
	if uint64(len(e.Labels)) > n {
		return nil, "vertex-shrink"
	}
	for _, op := range d.Ops {
		if op.Del {
			return nil, "delete"
		}
	}
	base := make([]uint32, n)
	copy(base, e.Labels)
	for i := uint64(len(e.Labels)); i < n; i++ {
		base[i] = uint32(i) // new vertices: own component, as a full run inits
	}
	init := append([]uint32(nil), base...)
	seeds := 0
	for _, op := range d.Ops {
		if op.Src >= n || op.Dst >= n {
			continue
		}
		lo := init[op.Src]
		if init[op.Dst] < lo {
			lo = init[op.Dst]
		}
		if init[op.Src] != lo {
			init[op.Src] = lo
			seeds++
		}
		if init[op.Dst] != lo {
			init[op.Dst] = lo
			seeds++
		}
	}
	return &IncCC{
		g:     g,
		init:  init,
		cost:  incCost{lane: 110, slot: 50},
		snap:  base,
		scan:  bitset.New(int(n)),
		Seeds: seeds,
	}, ""
}

// NewState implements Kernel.
func (k *IncCC) NewState() kernels.State {
	return &incCCState{labels: make([]uint32, k.g.NumVertices())}
}

// Init implements Kernel: labels start at the seeded retained labels.
func (k *IncCC) Init(st kernels.State, _ uint64) { copy(incLabels(st), k.init) }

// PlanLevel implements FrontierKernel: the round's scan set is every
// vertex whose label changed since the last snapshot plus its
// in-neighbors (which may pull the lowered label across an edge the
// changed vertex cannot see from its own slot). The merge has already made
// every replica's labels identical.
func (k *IncCC) PlanLevel(sts []kernels.State, _ int32, next *bitset.Set) kernels.Direction {
	next.Reset()
	k.scan.Reset()
	changed := false
	for v, l := range incLabels(sts[0]) {
		if l != k.snap[v] {
			if k.rev == nil {
				k.rev = k.g.Reverse()
			}
			changed = true
			k.snap[v] = l
			vid := uint64(v)
			k.scan.Set(v)
			kernels.MarkVertexPages(k.g, vid, next, true)
			for _, u := range k.rev.In(vid) {
				k.scan.Set(int(u))
				kernels.MarkVertexPages(k.g, uint64(u), next, true)
			}
		}
	}
	if !changed {
		return kernels.DirNone
	}
	return kernels.DirPush
}

// Run is IncCC's K_SP and K_LP: relax labels for the page's scan-set slots,
// both directions, exactly as the full CC's page kernel does.
func (k *IncCC) Run(a *kernels.Args) kernels.Result {
	labels := incLabels(a.State)
	var res kernels.Result
	w := kernels.WalkPage(a)
	for kernels.SeekSet(&w, k.scan) {
		pos, end, _ := w.Record()
		kernels.RelaxMin(a, labels, w.V, pos, end, &res)
	}
	res.Edges = w.Edges()
	res.Cycles = k.cost.cycles(w.Slots(), w.Edges())
	return res
}

// MergeStates implements Kernel: labels merge by minimum.
func (k *IncCC) MergeStates(sts []kernels.State) { kernels.Merge(sts, incLabels, kernels.Min) }

// Components exposes the final labels of a finished run.
func (k *IncCC) Components(st kernels.State) []uint32 { return incLabels(st) }
