package kernels

import (
	"math/bits"

	"repro/internal/bitset"
)

// BFSGroup runs one page for several plain-BFS members of a wave group at
// once, hop-capped ones included (MS-BFS; DESIGN §8 "One visit per edge per
// wave"): records and entries are decoded once, and an entry whose neighbor
// every interested member has reached costs one byte load, not a random
// level load per member. A member holds the lane Join gives it for the
// group's life, and a lane never has a second owner; seen[v] has lane i's bit
// only if lane i's level vector holds a level for v. It is a filter, never
// the truth — a clear bit sends the lane to its own lv[v], the solo kernel's
// test — so a lane that joins late, at a fresh column, is as exact as one
// that joins first. Each lane gets its own Result by
// BFS.Run's arithmetic in the same order, and marks pages as its
// own kernel does, so its virtual time is what it is alone. The zero value
// is ready.
type BFSGroup struct {
	owner []*BFS // lane -> the kernel holding it
	// seen[{block, gpu}] masks a block of laneBits lanes on one GPU (under
	// Strategy-P each has its own replica of a lane's state and counts its own
	// discoveries), allocated at its first grouped page.
	seen  map[[2]int][]uint8
	fmask []uint8            // the running pass's per-slot frontier mask, made with seen
	in    [laneBits]*BFSLane // the running pass's lanes, by bit
	lv    [laneBits][]int16
	acc   [laneBits]laneAcc
}

// laneBits is the width of a seen mask; more lanes run a pass per block of it.
const laneBits = 8

// bfsGroupMin is how many plain-BFS demanders share a page. ms per group of the
// repository benchmark's first k shared-BFS sources, separate -> grouped
// (BenchmarkBFSGroupSizes, RMAT27@11; EXPERIMENTS.md "host"):
//
//	k = 1   5.8- 6.7 ->  6.2- 6.3   (with bfsGroupMin 1) the mask buys one lane nothing
//	k = 2  11.0-13.0 ->  8.5-10.9
//	k = 3  16.0-18.6 -> 10.3-11.6
//	k = 8  42.1-49.9 -> 16.1-18.1
const bfsGroupMin = 2

// BFSLane is one member's share of a grouped page: its lane, the state the
// page's GPU works on, its own level and next-page set, and its Result's place.
type BFSLane struct {
	Lane     int
	State    State
	Level    int32
	NextPIDs *bitset.Set
	Res      *Result
}

// Join gives k a fresh lane, whose bit column no one has set.
func (g *BFSGroup) Join(k *BFS) int {
	g.owner = append(g.owner, k)
	return len(g.owner) - 1
}

// Run executes a's page on GPU gpu for lanes, each lane's Result going
// through its Res, or reports false having done nothing when they are too few
// to share. a gives the page, ownership range and Tech; the rest is per lane.
func (g *BFSGroup) Run(a *Args, gpu int, lanes []BFSLane) bool {
	if len(lanes) < bfsGroupMin {
		return false
	}
	for block := 0; block*laneBits < len(g.owner); block++ {
		var mask uint8
		for i := range lanes {
			if in := &lanes[i]; in.Lane/laneBits == block {
				b := in.Lane % laneBits
				mask |= 1 << b
				g.in[b], g.lv[b], g.acc[b], *in.Res = in, in.State.(*bfsState).lv, laneAcc{}, Result{}
			}
		}
		if mask == 0 {
			continue
		}
		key := [2]int{block, gpu}
		if g.seen[key] == nil {
			if g.seen == nil {
				g.seen, g.fmask = map[[2]int][]uint8{}, make([]uint8, a.Graph.Config().MaxSlotsPerPage())
			}
			g.seen[key] = make([]uint8, a.Graph.NumVertices())
		}
		g.pass(a, g.seen[key], mask)
	}
	return true
}

// pass is K_BFS_SP or K_BFS_LP for the lanes of mask.
func (g *BFSGroup) pass(a *Args, seen []uint8, mask uint8) {
	dec, buf := a.Graph.Decoder(), a.Page.Bytes()
	start, slots := dec.StartVID(a.PID), a.Page.NumSlots() // a large page has one slot: its vertex
	// Which lanes have each slot's vertex on their frontier. (x-1)>>31 is 1
	// exactly when the 16-bit x is 0: no branch to mispredict. marks holds
	// the lanes whose discoveries mark pages (all but a capped lane's last
	// level).
	fmask := g.fmask[:slots]
	clear(fmask)
	var marks uint8
	for m := mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros8(m)
		level := uint16(g.in[b].Level)
		for slot, l := range g.lv[b][start:][:slots] {
			fmask[slot] |= uint8((uint32(uint16(l)^level)-1)>>31) << b
		}
		if g.owner[g.in[b].Lane].marks(int16(level)) {
			marks |= 1 << b
		}
	}
	for slot, f := range fmask {
		if f == 0 {
			continue
		}
		pos, end, deg := dec.Record(buf, slot)
		for m := f; m != 0; m &= m - 1 {
			g.acc[bits.TrailingZeros8(m)].add(deg)
		}
		for w := dec.Width(); pos < end; pos += w {
			nvid, npid := dec.VID(buf, pos)
			d := f &^ seen[nvid]
			if d == 0 || !a.owns(nvid) {
				continue
			}
			// Every lane of d holds a level for nvid after this entry: the one
			// it had (its bit was merely unset) or the one its own lv gets now.
			seen[nvid] |= d
			for ; d != 0; d &= d - 1 {
				b := bits.TrailingZeros8(d)
				if g.lv[b][nvid] == unvisited {
					g.lv[b][nvid] = int16(g.in[b].Level) + 1
					if marks&(1<<b) != 0 {
						g.in[b].NextPIDs.Set(int(npid))
					}
					g.in[b].Res.Updates++
				}
			}
		}
	}
	for m := mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros8(m)
		res := g.in[b].Res
		res.Edges, res.Active = g.acc[b].edges, res.Updates > 0
		res.Cycles = g.owner[g.in[b].Lane].cost.cycles(int64(slots), &g.acc[b], a.Tech)
	}
}
