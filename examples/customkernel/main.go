// Custom kernel: the paper's framework executes *user-defined* GPU kernel
// functions (K-theta in §3.1); this example implements one from outside the
// engine — max-label propagation, which finds each weakly-connected
// component's highest vertex ID — and runs it through gts.RunKernel.
//
// A kernel is four methods: NewState and Init make its attribute state, Run
// is its one page kernel and reports the simulated GPU cycles, and
// MergeStates defines how per-GPU state replicas merge under Strategy-P. An
// EndIteration makes it a gts.ScanKernel, one that streams every page every
// iteration; without one it is a traversal. Slotted pages
// store low-degree vertices many per small page and a high-degree vertex
// across a run of large pages; a large page is a page with one slot, its
// vertex, whose record holds the page's part of that vertex's adjacency.
package main

import (
	"fmt"
	"log"

	gts "repro"
	"repro/internal/slottedpage"
)

// maxLabel is a PageRank-like (full-scan) kernel: every iteration each
// vertex pushes its current label to its out-neighbors and adopts the
// larger of what it had and what arrived, until a fixpoint.
type maxLabel struct {
	g *slottedpage.Graph
}

type maxState struct {
	prev []uint32
	next []uint32
}

func (s *maxState) WABytes() int64 { return int64(len(s.prev)) * 8 }
func (s *maxState) Clone() gts.KernelState {
	return &maxState{
		prev: append([]uint32(nil), s.prev...),
		next: append([]uint32(nil), s.next...),
	}
}

func (k *maxLabel) NewState() gts.KernelState {
	n := k.g.NumVertices()
	return &maxState{prev: make([]uint32, n), next: make([]uint32, n)}
}

func (k *maxLabel) Init(st gts.KernelState, _ uint64) {
	s := st.(*maxState)
	for i := range s.prev {
		s.prev[i] = uint32(i)
		s.next[i] = uint32(i)
	}
}

// Run is the kernel's K_SP and K_LP, the paper's user-defined page kernel:
// one warp per slot, pushing labels along the page's adjacency entries in
// both directions. Slot i is vertex StartVID + i.
func (k *maxLabel) Run(a *gts.KernelArgs) gts.KernelResult {
	s := a.State.(*maxState)
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	var res gts.KernelResult
	for slot, vid := 0, dec.StartVID(a.PID); slot < a.Page.NumSlots(); slot, vid = slot+1, vid+1 {
		res.Cycles += 20
		pos, end, _ := dec.Record(buf, slot)
		k.push(a, s, vid, pos, end, &res)
	}
	return res
}

// push visits one record's neighbors: its entries lie at [pos, end) of the
// page bytes, dec.Width() apart, and dec.VID resolves each physical ID to
// the neighbor's vertex ID right where the loop uses it — nothing is
// decoded ahead, so the kernel allocates nothing.
func (k *maxLabel) push(a *gts.KernelArgs, s *maxState, vid uint64, pos, end int, res *gts.KernelResult) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	cv := s.prev[vid]
	for ; pos < end; pos += dec.Width() {
		nvid, _ := dec.VID(buf, pos)
		res.Edges++
		res.Cycles += 40
		if nvid >= a.OwnedLo && nvid < a.OwnedHi && cv > s.next[nvid] {
			s.next[nvid] = cv
			res.Updates++
			res.Active = true
		}
		if cn := s.prev[nvid]; vid >= a.OwnedLo && vid < a.OwnedHi && cn > s.next[vid] {
			s.next[vid] = cn
			res.Updates++
			res.Active = true
		}
	}
}

// MergeStates combines Strategy-P replicas: labels merge by maximum.
func (k *maxLabel) MergeStates(sts []gts.KernelState) {
	if len(sts) < 2 {
		return
	}
	base := sts[0].(*maxState)
	for _, other := range sts[1:] {
		o := other.(*maxState)
		for v, c := range o.next {
			if c > base.next[v] {
				base.next[v] = c
			}
		}
	}
	for _, other := range sts[1:] {
		copy(other.(*maxState).next, base.next)
	}
}

// EndIteration makes maxLabel a gts.ScanKernel: it advances the fixpoint
// loop.
func (k *maxLabel) EndIteration(sts []gts.KernelState, active bool) bool {
	for _, st := range sts {
		s := st.(*maxState)
		copy(s.prev, s.next)
	}
	return active
}

func main() {
	graph, err := gts.Open("RMAT27@13")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := gts.NewSystem(graph, gts.Config{GPUs: 2})
	if err != nil {
		log.Fatal(err)
	}

	k := &maxLabel{g: graph}
	st, m, err := sys.RunKernel(k, 0)
	if err != nil {
		log.Fatal(err)
	}
	labels := st.(*maxState).prev
	comps := map[uint32]int{}
	for _, l := range labels {
		comps[l]++
	}
	fmt.Printf("custom MaxLabel kernel over %d vertices:\n", graph.NumVertices())
	fmt.Printf("  components found:  %d (labelled by their max vertex ID)\n", len(comps))
	fmt.Printf("  fixpoint after:    %d full scans\n", m.Levels)
	fmt.Printf("  virtual elapsed:   %v, %d pages streamed, %.0f%% cache hits\n",
		m.Elapsed, m.PagesStreamed, 100*m.CacheHitRate)
}
