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
//
// The kernel keeps the prior read-only and its seeds in a list beside it, so
// the run's own state and snap are its only |V|-sized label vectors.
type IncCC struct {
	g *slottedpage.Graph
	// rev is the graph's reverse index, fetched at the first changed
	// vertex, so a plan that changes none never builds it.
	rev   *slottedpage.Reverse
	prior []uint32 // the prior run's labels, never written
	seeds []ccSeed // relabelings in op order; a later one for a vertex wins
	cost  incCost

	// plan state: snap starts at the retained labels before the seeds, so
	// the first plan scans every seeded vertex.
	snap []uint32
	scan *bitset.Set

	// Seeds is how many vertices the delta directly relabeled.
	Seeds int
}

// ccSeed is one relabeling the delta applies before the run: vertex v from
// label old to label new.
type ccSeed struct {
	v        uint64
	old, new uint32
}

type incCCState struct{ labels []uint32 }

func (s *incCCState) WABytes() int64       { return int64(len(s.labels)) * 4 }
func (s *incCCState) Clone() kernels.State { return &incCCState{labels: slices.Clone(s.labels)} }
func incLabels(st kernels.State) []uint32  { return st.(*incCCState).labels }

// PlanCC builds an incremental CC kernel from a prior run's labels and the
// ops committed since, or reports a fallback reason (any delete among them).
// It seeds from every insert in ops without looking for the edge in g, so
// ops must end at g's snapshot: what Store.Delta returns for g's epoch.
func PlanCC(g *slottedpage.Graph, labels []uint32, ops []slottedpage.EdgeOp) (*IncCC, string) {
	n := g.NumVertices()
	if uint64(len(labels)) > n {
		return nil, "vertex-shrink"
	}
	for _, op := range ops {
		if op.Del {
			return nil, "delete"
		}
	}
	k := &IncCC{
		g:     g,
		prior: labels,
		cost:  incCost{lane: 110, slot: 50},
		snap:  make([]uint32, n),
		scan:  bitset.New(int(n)),
	}
	initLabels(k.snap, labels)
	// Seed in op order so chained inserts compound: each insert lowers both
	// endpoints to the lower of their labels, applied to snap as it goes
	// and undone below, so snap ends at the retained labels again.
	for _, op := range ops {
		if op.Src >= n || op.Dst >= n {
			continue
		}
		lo := min(k.snap[op.Src], k.snap[op.Dst])
		for _, v := range [2]uint64{op.Src, op.Dst} {
			if k.snap[v] != lo {
				k.seeds = append(k.seeds, ccSeed{v: v, old: k.snap[v], new: lo})
				k.snap[v] = lo
			}
		}
	}
	for i := len(k.seeds) - 1; i >= 0; i-- {
		k.snap[k.seeds[i].v] = k.seeds[i].old
	}
	k.Seeds = len(k.seeds)
	return k, ""
}

// initLabels sets labels to the prior labels, with every vertex the prior
// run did not have in its own component, as a full run inits it.
func initLabels(labels, prior []uint32) {
	copy(labels, prior)
	for i := len(prior); i < len(labels); i++ {
		labels[i] = uint32(i)
	}
}

// NewState implements Kernel.
func (k *IncCC) NewState() kernels.State {
	return &incCCState{labels: make([]uint32, k.g.NumVertices())}
}

// Init implements Kernel: labels start at the retained labels, extended,
// with the seeds applied.
func (k *IncCC) Init(st kernels.State, _ uint64) {
	labels := incLabels(st)
	initLabels(labels, k.prior)
	for _, s := range k.seeds {
		labels[s.v] = s.new
	}
}

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
		res.Add(kernels.RelaxMin(a, labels, w.V, pos, end))
	}
	res.Edges = w.Edges()
	res.Cycles = k.cost.cycles(w.Slots(), w.Edges())
	return res
}

// MergeStates implements Kernel: labels merge by minimum.
func (k *IncCC) MergeStates(sts []kernels.State) { kernels.Merge(sts, incLabels, kernels.Min) }

// Components exposes the final labels of a finished run.
func (k *IncCC) Components(st kernels.State) []uint32 { return incLabels(st) }
