package kernels

import (
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/slottedpage"
)

// MultiBFS is a multi-source BFS (MS-BFS; DESIGN §8): one plain-BFS
// traversal per lane, hop-capped ones included, run level by level as one
// kernel whose state holds one int16 level vector per lane. A page runs the
// lanes that have it in their page set, decoding its records and entries once
// for all of them, and an entry whose neighbor every running lane has reached
// costs one byte load, not a level load per lane: seen[v] has lane i's bit
// only if lane i's level vector holds a level for v. It is a filter, never
// the truth — a clear bit sends the lane to its own lv[v], the solo kernel's
// test. Each lane gets its own Result by BFS.Run's arithmetic in the same
// order and marks pages as its own kernel does, so a lane's levels, edges and
// updates are its BFS's alone; a page's Result sums its lanes'. It plans its
// own levels (FrontierKernel): each lane keeps its own page set, and a lane
// whose set empties is done.
type MultiBFS struct {
	g       *slottedpage.Graph
	lanes   []*BFS // lane j's kernel: its hop cap and cost
	sources []uint64
	// cur[j] is lane j's page set at the running level (empty once the lane
	// is done), next[j] the pages its discoveries mark for the level after.
	cur, next []*bitset.Set
	stats     []LaneStats
	res       []Result // the last Run's Result per lane; zero for a lane it did not run

	// The running pass's lanes by bit, their level vectors and lane counts,
	// and its per-slot frontier mask.
	in    [laneBits]int
	lv    [laneBits][]int16
	acc   [laneBits]laneAcc
	fmask []uint8
}

// LaneStats is one lane's share of a run: the supersteps its page set was
// not empty, its edges and updates (its solo run's Levels, EdgesTraversed
// and Updates), and the page runs it took part in.
type LaneStats struct {
	Levels                int32
	Edges, Updates, Pages int64
}

// laneBits is the width of a seen mask; more lanes run a pass per block of it.
const laneBits = 8

var _ FrontierKernel = (*MultiBFS)(nil)

type multiState struct {
	lv   [][]int16 // lv[j] is lane j's level vector
	seen []uint8   // seen[b·|V|+v]: the lanes of block b that hold a level for v
}

func (s *multiState) WABytes() int64 { return int64(len(s.lv)*len(s.lv[0])) * 2 }

func (s *multiState) Clone() State {
	c := &multiState{seen: slices.Clone(s.seen)}
	for _, lv := range s.lv {
		c.lv = append(c.lv, slices.Clone(lv))
	}
	return c
}

// NewMultiBFS returns a multi-source BFS over g whose lane j runs lanes[j]
// from sources[j]; lanes may repeat a kernel.
func NewMultiBFS(g *slottedpage.Graph, lanes []*BFS, sources []uint64) *MultiBFS {
	k := &MultiBFS{g: g, lanes: lanes, sources: sources, stats: make([]LaneStats, len(lanes)),
		res: make([]Result, len(lanes)), fmask: make([]uint8, g.Config().MaxSlotsPerPage())}
	for range lanes {
		k.cur = append(k.cur, bitset.New(g.NumPages()))
		k.next = append(k.next, bitset.New(g.NumPages()))
	}
	return k
}

// NewState implements Kernel.
func (k *MultiBFS) NewState() State {
	nV := int(k.g.NumVertices())
	s := &multiState{seen: make([]uint8, (len(k.lanes)+laneBits-1)/laneBits*nV)}
	for range k.lanes {
		s.lv = append(s.lv, make([]int16, nV))
	}
	return s
}

// Init implements Kernel: lane j starts from sources[j] (the source argument
// is not read).
func (k *MultiBFS) Init(st State, _ uint64) {
	s := st.(*multiState)
	for j, lv := range s.lv {
		k.lanes[j].Init(&bfsState{lv}, k.sources[j])
	}
	clear(s.seen)
	clear(k.stats)
}

// UpdateBytes is what a Strategy-P peer merge moves per update: one lane's
// level, not every lane's.
func (k *MultiBFS) UpdateBytes() int64 { return 2 }

// PlanLevel implements FrontierKernel: at level 0 each lane's page set is
// its source's pages, later the pages its last level marked, with a large
// vertex's whole run added (a page kernel marks its first page); next is
// their union. A lane whose set empties is done after level supersteps.
func (k *MultiBFS) PlanLevel(_ []State, level int32, next *bitset.Set) Direction {
	next.Reset()
	for j, cur := range k.cur {
		switch {
		case level == 0:
			cur.Reset()
			k.next[j].Reset()
			MarkVertexPages(k.g, k.sources[j], cur, true)
		case cur.Any():
			cur.Reset()
			k.next[j].ForEach(func(pid int) {
				MarkVertexPages(k.g, k.g.RVT(slottedpage.PageID(pid)).StartVID, cur, true)
			})
			k.next[j].Reset()
			if !cur.Any() {
				k.stats[j].Levels = level
			}
		}
		next.Or(cur)
	}
	return DirPush
}

// Run implements Kernel: K_BFS_SP or K_BFS_LP for the page's lanes, a pass
// per block of laneBits of them.
func (k *MultiBFS) Run(a *Args) Result {
	s := a.State.(*multiState)
	nV := len(s.lv[0])
	clear(k.res)
	var sum Result
	for block := 0; block*laneBits < len(k.lanes); block++ {
		var mask uint8
		for b := range min(laneBits, len(k.lanes)-block*laneBits) {
			if j := block*laneBits + b; k.cur[j].Get(int(a.PID)) {
				mask |= 1 << b
				k.in[b], k.lv[b], k.acc[b] = j, s.lv[j], laneAcc{}
			}
		}
		if mask == 0 {
			continue
		}
		k.pass(a, s.seen[block*nV:][:nV], mask)
		for m := mask; m != 0; m &= m - 1 {
			j := k.in[bits.TrailingZeros8(m)]
			res, st := k.res[j], &k.stats[j]
			sum.Cycles += res.Cycles
			sum.Edges += res.Edges
			sum.Updates += res.Updates
			st.Edges += res.Edges
			st.Updates += res.Updates
			st.Pages++
		}
	}
	return sum
}

// pass runs the lanes of mask over a's page.
func (k *MultiBFS) pass(a *Args, seen []uint8, mask uint8) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	ents, w := dec.Entries(), dec.Width()
	start, slots := dec.StartVID(a.PID), a.Page.NumSlots() // a large page has one slot: its vertex
	level := int16(a.Level)
	// Which lanes have each slot's vertex on their frontier. (x-1)>>31 is 1
	// exactly when the 16-bit x is 0: no branch to mispredict. marks holds
	// the lanes whose discoveries mark pages (all but a capped lane's last
	// level).
	fmask := k.fmask[:slots]
	clear(fmask)
	var marks uint8
	for m := mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros8(m)
		for slot, l := range k.lv[b][start:][:slots] {
			fmask[slot] |= uint8((uint32(uint16(l)^uint16(level))-1)>>31) << b
		}
		if k.lanes[k.in[b]].marks(level) {
			marks |= 1 << b
		}
	}
	for slot, f := range fmask {
		if f == 0 {
			continue
		}
		pos, end, deg := dec.Record(buf, slot)
		for m := f; m != 0; m &= m - 1 {
			k.acc[bits.TrailingZeros8(m)].add(deg)
		}
		// Every lane of d holds a level for nvid after the entry: the one it
		// had (its bit was merely unset) or the one discover gives it.
		if sv, ok := ents.Words(); ok {
			for b := buf[pos:end]; len(b) >= 4; b = b[4:] {
				nvid, npid := slottedpage.WordVID(sv, b)
				if d := f &^ seen[nvid]; d != 0 && a.owns(nvid) {
					seen[nvid] |= d
					k.discover(nvid, npid, d, marks, level)
				}
			}
			continue
		}
		for ; pos < end; pos += w {
			nvid, npid := ents.VID(buf, pos)
			if d := f &^ seen[nvid]; d != 0 && a.owns(nvid) {
				seen[nvid] |= d
				k.discover(nvid, npid, d, marks, level)
			}
		}
	}
	for m := mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros8(m)
		j := k.in[b]
		res := &k.res[j]
		res.Edges = k.acc[b].edges
		res.Cycles = k.lanes[j].cost.cycles(int64(slots), &k.acc[b], a.Tech)
	}
}

// discover gives nvid, on page npid, level+1 in every lane of d that has not
// visited it, marking npid for the next level in the lanes of marks.
func (k *MultiBFS) discover(nvid uint64, npid slottedpage.PageID, d, marks uint8, level int16) {
	for ; d != 0; d &= d - 1 {
		b := bits.TrailingZeros8(d)
		if k.lv[b][nvid] == unvisited {
			k.lv[b][nvid] = level + 1
			if marks&(1<<b) != 0 {
				k.next[k.in[b]].Set(int(npid))
			}
			k.res[k.in[b]].Updates++
		}
	}
}

// MergeStates implements Kernel: each lane's levels merge by MinLevel. A
// replica's seen mask stays its own: merging only adds levels.
func (k *MultiBFS) MergeStates(sts []State) {
	for j := range k.lanes {
		Merge(sts, func(st State) []int16 { return st.(*multiState).lv[j] }, MinLevel)
	}
}

// Lane is lane j's part of a run: its state, which lane j's BFS decodes
// (Levels), and its stats.
func (k *MultiBFS) Lane(st State, j int) (State, LaneStats) {
	return &bfsState{st.(*multiState).lv[j]}, k.stats[j]
}
