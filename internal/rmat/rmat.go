// Package rmat generates scale-free graphs with the R-MAT recursive model
// (Chakrabarti, Zhan, Faloutsos, SDM'04) that the paper's synthetic datasets
// RMAT26-RMAT32 come from. The paper fixes the vertex:edge ratio at 1:16.
//
// Every generated graph in the repository is regenerated from its Params at
// each load (gts.Open, a gtsd load, WAL recovery), so generation is on the
// load path. Edges reads the same stream as math/rand and returns the edges
// a sequential loop over rand.New(rand.NewSource(Seed)).Float64 gives, bit
// for bit, on any GOMAXPROCS: it continues the source's recurrence in bulk
// and synthesizes the edges on every core, four at a time.
package rmat

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/csr"
)

// Params configures a generation run. Probabilities (A,B,C,D) pick the
// quadrant at each recursion level; the Graph500/paper default is the
// skewed (0.57, 0.19, 0.19, 0.05).
type Params struct {
	Scale      int     // numVertices = 1 << Scale
	EdgeFactor int     // numEdges = EdgeFactor << Scale (paper: 16)
	A, B, C, D float64 // quadrant probabilities, summing to 1
	Noise      float64 // per-level multiplicative jitter in [0,1); 0 = none
	Seed       int64
}

// Default returns the paper's RMAT parameterization at the given scale:
// E = 16*V with the standard skewed quadrant probabilities.
func Default(scale int) Params {
	return Params{Scale: scale, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 0.1, Seed: 1}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Scale < 1 || p.Scale > 31 {
		return fmt.Errorf("rmat: scale %d out of range [1,31]", p.Scale)
	}
	if p.EdgeFactor < 1 {
		return fmt.Errorf("rmat: edge factor %d < 1", p.EdgeFactor)
	}
	sum := p.A + p.B + p.C + p.D
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("rmat: quadrant probabilities sum to %v, want 1", sum)
	}
	if p.Noise < 0 || p.Noise >= 1 {
		return fmt.Errorf("rmat: noise %v out of range [0,1)", p.Noise)
	}
	return nil
}

// NumVertices reports the vertex count 2^Scale.
func (p Params) NumVertices() int { return 1 << p.Scale }

// NumEdges reports the edge count EdgeFactor * 2^Scale.
func (p Params) NumEdges() int { return p.EdgeFactor << p.Scale }

// Edges generates the R-MAT edge list. Edge i is the i-th edge of a loop
// that draws every number from rand.New(rand.NewSource(p.Seed)).Float64:
// per level one number picks the quadrant, and with noise three more jitter
// a, b and c in that order. The same Params always produce the same edges,
// whatever GOMAXPROCS is.
//
// The loop is not run as written. The numbers come from math/rand's own
// stream continued in bulk (see stream), a block of edges' worth at a time
// under a lock, and GOMAXPROCS workers turn blocks into disjoint ranges of
// the edge slice, four edges at a time, each edge through the same float
// operations in the same order as the loop. The lock covers only the
// recurrence and a copy; each worker converts its own block's outputs.
func Edges(p Params) ([]csr.Edge, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	edges := make([]csr.Edge, p.NumEdges())
	g := &gen{p: p, perLevel: 1, s: newStream(rand.NewSource(p.Seed).(rand.Source64))}
	if p.Noise > 0 {
		g.perLevel = 4
	}
	workers := min(runtime.GOMAXPROCS(0), (len(edges)+blockEdges-1)/blockEdges)
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.work(edges)
		}()
	}
	g.work(edges)
	wg.Wait()
	return edges, nil
}

// blockEdges is how many edges a worker takes at once: a multiple of four,
// and at scale 16 with noise a 256 KiB buffer of outputs.
const blockEdges = 512

// gen is one Edges call: the stream, handed out a block at a time, and
// the parameters every worker reads.
type gen struct {
	p        Params
	perLevel int // numbers drawn per level: 1, or 4 with noise

	mu   sync.Mutex
	s    *stream
	done int // edges handed out
}

// work takes blocks of edges until none are left: it takes a block's
// outputs under the lock, so blocks take the stream in edge order, and
// synthesizes the edges outside it.
func (g *gen) work(edges []csr.Edge) {
	perEdge := g.perLevel * g.p.Scale
	// The buffer has room for a whole block, so the last block's four-edge
	// tail can read past the numbers drawn for it.
	buf := make([]uint64, blockEdges*perEdge)
	for {
		g.mu.Lock()
		lo := g.done
		hi := min(lo+blockEdges, len(edges))
		g.done = hi
		g.s.take(buf[:(hi-lo)*perEdge])
		g.mu.Unlock()
		if lo == hi {
			return
		}
		for i := lo; i < hi; i += 4 {
			var four [4]csr.Edge
			g.four(&four, buf[(i-lo)*perEdge:])
			copy(edges[i:hi], four[:])
		}
	}
}

// four builds four edges from their outputs, which sit one edge after the
// other in u. Each edge descends Scale levels of the recursive quadrant
// partition; the four are independent, so their dependent chains (the
// jitter's divisions above all) overlap.
func (g *gen) four(e *[4]csr.Edge, u []uint64) {
	p := &g.p
	step, perEdge := g.perLevel, g.perLevel*p.Scale
	u0, u1, u2, u3 := u[:perEdge], u[perEdge:2*perEdge], u[2*perEdge:3*perEdge], u[3*perEdge:4*perEdge]
	base, mean := 1-p.Noise/2, p.A+p.B+p.C
	a0, b0, c0 := p.A, p.B, p.C
	a1, b1, c1 := p.A, p.B, p.C
	a2, b2, c2 := p.A, p.B, p.C
	a3, b3, c3 := p.A, p.B, p.C
	var s0, d0, s1, d1, s2, d2, s3, d3, sb, db uint32
	for level, i := 0, 0; level < p.Scale; level, i = level+1, i+step {
		sb, db = quadrant(float(u0[i]), a0, b0, c0)
		s0, d0 = s0|sb<<level, d0|db<<level
		sb, db = quadrant(float(u1[i]), a1, b1, c1)
		s1, d1 = s1|sb<<level, d1|db<<level
		sb, db = quadrant(float(u2[i]), a2, b2, c2)
		s2, d2 = s2|sb<<level, d2|db<<level
		sb, db = quadrant(float(u3[i]), a3, b3, c3)
		s3, d3 = s3|sb<<level, d3|db<<level
		if p.Noise == 0 {
			continue
		}
		// Jitter keeps the generator from producing an exactly
		// self-similar graph (as in the Graph500 reference code).
		a0, b0, c0 = jitter(a0, b0, c0, float(u0[i+1]), float(u0[i+2]), float(u0[i+3]), base, p.Noise, mean)
		a1, b1, c1 = jitter(a1, b1, c1, float(u1[i+1]), float(u1[i+2]), float(u1[i+3]), base, p.Noise, mean)
		a2, b2, c2 = jitter(a2, b2, c2, float(u2[i+1]), float(u2[i+2]), float(u2[i+3]), base, p.Noise, mean)
		a3, b3, c3 = jitter(a3, b3, c3, float(u3[i+1]), float(u3[i+2]), float(u3[i+3]), base, p.Noise, mean)
	}
	e[0], e[1], e[2], e[3] = csr.Edge{Src: s0, Dst: d0}, csr.Edge{Src: s1, Dst: d1}, csr.Edge{Src: s2, Dst: d2}, csr.Edge{Src: s3, Dst: d3}
}

// quadrant returns the source and destination bits of the quadrant x falls
// in: [0,a) sets neither, [a,a+b) the destination's, [a+b,a+b+c) the
// source's, past it both. It tests x against the same sums the sequential
// loop's switch does, and chooses without a branch.
func quadrant(x, a, b, c float64) (src, dst uint32) {
	ab := a + b
	pastA, pastAB, pastABC := past(x, a), past(x, ab), past(x, ab+c)
	return pastA & pastAB, pastA & (pastAB ^ 1 | pastABC)
}

// jitter scales a, b and c by base + noise*n for their draws n0, n1 and
// n2, then renormalizes them to sum to mean.
func jitter(a, b, c, n0, n1, n2, base, noise, mean float64) (float64, float64, float64) {
	a *= base + noise*n0
	b *= base + noise*n1
	c *= base + noise*n2
	norm := (a + b + c) / mean
	return a / norm, b / norm, c / norm
}

// past is 0 if x < t, else 1 (also when t is NaN, as the loop's switch
// falls through a case x < NaN).
func past(x, t float64) uint32 {
	var b uint32
	if !(x < t) {
		b = 1
	}
	return b
}

// math/rand's source is an additive lagged-Fibonacci generator: its n-th
// Uint64 output is y[n] = y[n-rngLen] + y[n-rngTap] (mod 2^64) once n >=
// rngLen. Rand.Float64 maps an output y to float64(y & rngMask) / 2^63 and
// draws again when that rounds to 1, which it does from nearOne on: below
// 2^63 float64 values lie 2^10 apart, and 2^63 - 2^9 ties to the even 2^63.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	nearOne = 1<<63 - 1<<9
)

// float is Rand.Float64 of an output it keeps.
func float(y uint64) float64 {
	return float64(int64(y&rngMask)) / (1 << 63)
}

// stream yields, in bulk, the outputs of a math/rand source that
// Rand.Float64 keeps. It takes the source's first rngLen outputs and
// continues them with the recurrence, a whole register at a time.
type stream struct {
	y       [rngLen]uint64 // outputs n0 .. n0+rngLen-1, for the register's n0
	pos     int            // y[pos] is the next output; rngLen: advance first
	hasNear bool           // some y[i] & rngMask >= nearOne
}

func newStream(src rand.Source64) *stream {
	s := &stream{}
	for i := range s.y {
		s.y[i] = src.Uint64()
		s.hasNear = s.hasNear || s.y[i]&rngMask >= nearOne
	}
	return s
}

// advance moves the register on by rngLen outputs. y[i] becomes y[i] +
// y'[i-rngTap]: for i < rngTap that output is the old register's
// y[i+rngLen-rngTap], from i = rngTap on the new one's y[i-rngTap].
func (s *stream) advance() {
	// top is the largest output with its top bit shifted out: comparing
	// once per register is cheaper than testing every output.
	var top uint64
	old, lag := s.y[:rngTap], s.y[rngLen-rngTap:]
	for i := range old {
		y := old[i] + lag[i]
		old[i] = y
		top = max(top, y<<1)
	}
	rest, lag := s.y[rngTap:], s.y[:rngLen-rngTap]
	for i := range rest {
		y := rest[i] + lag[i]
		rest[i] = y
		top = max(top, y<<1)
	}
	s.pos, s.hasNear = 0, top >= nearOne<<1
}

// take copies the stream's next len(raw) kept outputs into raw.
func (s *stream) take(raw []uint64) {
	for len(raw) > 0 {
		if s.pos == rngLen {
			s.advance()
		}
		y := s.y[s.pos:min(rngLen, s.pos+len(raw))]
		s.pos += len(y)
		if !s.hasNear {
			raw = raw[copy(raw, y):]
			continue
		}
		for _, y := range y {
			// Rand.Float64 draws again for a number that rounds to 1.
			if y&rngMask < nearOne {
				raw[0] = y
				raw = raw[1:]
			}
		}
	}
}

// Generate builds the CSR graph directly.
func Generate(p Params) (*csr.Graph, error) {
	edges, err := Edges(p)
	if err != nil {
		return nil, err
	}
	return csr.FromEdges(p.NumVertices(), edges)
}

// MustGenerate is Generate, panicking on invalid parameters.
func MustGenerate(p Params) *csr.Graph {
	g, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return g
}
