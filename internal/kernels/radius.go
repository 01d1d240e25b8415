package kernels

import (
	"math"
	"slices"

	"repro/internal/slottedpage"
)

// Radius implements the "radius estimations" entry of the paper's §3.3
// PageRank-like class, in the style of ANF (Palmer, Gibbons, Faloutsos,
// KDD'02): every vertex carries K Flajolet-Martin bitmask sketches of its
// reachable set; each full scan ORs in the out-neighbors' sketches,
// extending reach by one hop. A vertex's (out-)eccentricity estimate is the
// iteration at which its sketches stop growing.
//
// Sketch updates are idempotent bitwise ORs, so replica merges and
// ownership splitting work exactly like the other full-scan kernels.
type Radius struct {
	g        *slottedpage.Graph
	sketches int
	maxHops  int32
	cost     costParams
}

// NewRadius returns a radius-estimation kernel with the given sketch count
// (more sketches, tighter estimates; 8 is a good default) and a hop cap.
func NewRadius(g *slottedpage.Graph, sketches, maxHops int) *Radius {
	if sketches < 1 {
		sketches = 1
	}
	return &Radius{
		g:        g,
		sketches: sketches,
		maxHops:  int32(maxHops),
		cost:     costParams{laneCycles: 90, slotCycles: 40},
	}
}

type radiusState struct {
	// prev and next hold K uint32 bitmasks per vertex, flattened.
	prev []uint32
	next []uint32
	// radius[v] is the last hop at which v's sketches grew.
	radius []int32
	k      int
	iter   int32
}

func (s *radiusState) WABytes() int64 {
	return int64(len(s.next))*4 + int64(len(s.radius))*4
}
func (s *radiusState) Clone() State {
	return &radiusState{prev: slices.Clone(s.prev), next: slices.Clone(s.next), radius: slices.Clone(s.radius), k: s.k, iter: s.iter}
}
func sketchNext(st State) []uint32 { return st.(*radiusState).next }
func radii(st State) []int32       { return st.(*radiusState).radius }

// fmBit returns the Flajolet-Martin bit for vertex v in sketch j: position
// = number of trailing zeros of a per-sketch hash, geometrically
// distributed.
func fmBit(v uint64, j int) uint32 {
	h := (v+1)*0x9E3779B97F4A7C15 ^ uint64(j+1)*0xD1B54A32D192ED03
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	pos := 0
	for pos < 31 && h&1 == 0 {
		h >>= 1
		pos++
	}
	return 1 << uint(pos)
}

// NewState implements Kernel.
func (k *Radius) NewState() State {
	n := int(k.g.NumVertices())
	return &radiusState{
		prev:   make([]uint32, n*k.sketches),
		next:   make([]uint32, n*k.sketches),
		radius: make([]int32, n),
		k:      k.sketches,
	}
}

// Init implements Kernel: every vertex starts knowing only itself.
func (k *Radius) Init(st State, _ uint64) {
	s := st.(*radiusState)
	for v := 0; v < len(s.radius); v++ {
		s.radius[v] = 0
		for j := 0; j < s.k; j++ {
			b := fmBit(uint64(v), j)
			s.prev[v*s.k+j] = b
			s.next[v*s.k+j] = b
		}
	}
	s.iter = 0
}

// Run is radius estimation's K_SP and K_LP (§3.3): OR each vertex's
// out-neighbors' sketches into its own.
func (k *Radius) Run(a *Args) Result {
	s := a.State.(*radiusState)
	var res Result
	w := WalkPage(a)
	for w.Next() {
		pos, end, _ := w.Record()
		res.Add(k.absorb(a, s, w.V, pos, end))
	}
	return k.cost.done(a, &w, res)
}

// absorb ORs the sketches of vid's neighbors in the record at [pos, end)
// into vid's, if vid is owned, and returns how many words changed.
func (k *Radius) absorb(a *Args, s *radiusState, vid uint64, pos, end int) (updates int64) {
	if !a.owns(vid) {
		return 0
	}
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	ents, w := dec.Entries(), dec.Width()
	base := int(vid) * s.k
	for ; pos < end; pos += w {
		nvid, _ := ents.VID(buf, pos)
		nb := int(nvid) * s.k
		for j := 0; j < s.k; j++ {
			old := s.next[base+j]
			merged := old | s.prev[nb+j]
			if merged != old {
				s.next[base+j] = merged
				updates++
			}
		}
	}
	return updates
}

// MergeStates implements Kernel: sketches merge by OR; radii by maximum.
func (k *Radius) MergeStates(sts []State) {
	Merge(sts, sketchNext, orOf)
	Merge(sts, radii, maxOf)
}

// EndIteration implements ScanKernel: record which vertices grew this hop,
// swap buffers, and continue until no sketch changes or the hop cap.
func (k *Radius) EndIteration(sts []State, active bool) bool {
	base := sts[0].(*radiusState)
	base.iter++
	for v := range base.radius {
		for j := 0; j < base.k; j++ {
			if base.next[v*base.k+j] != base.prev[v*base.k+j] {
				base.radius[v] = base.iter
				break
			}
		}
	}
	for _, st := range sts {
		s := st.(*radiusState)
		copy(s.prev, base.next)
		copy(s.next, base.next)
		copy(s.radius, base.radius)
		s.iter = base.iter
	}
	return active && base.iter < k.maxHops
}

// Radii exposes the per-vertex out-eccentricity estimates: the hop at
// which each vertex's reachable-set sketch last grew.
func (k *Radius) Radii(st State) []int32 { return st.(*radiusState).radius }

// EffectiveDiameter reports the smallest hop count within which the given
// fraction (e.g. 0.9) of vertices' sketches had stabilized.
func (k *Radius) EffectiveDiameter(st State, fraction float64) int32 {
	s := st.(*radiusState)
	if len(s.radius) == 0 {
		return 0
	}
	counts := make([]int, s.iter+1)
	for _, r := range s.radius {
		counts[r]++
	}
	need := int(math.Ceil(fraction * float64(len(s.radius))))
	acc := 0
	for h, c := range counts {
		acc += c
		if acc >= need {
			return int32(h)
		}
	}
	return s.iter
}
