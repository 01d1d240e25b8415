package rmat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/csr"
)

func TestValidate(t *testing.T) {
	if err := Default(10).Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []Params{
		{Scale: 0, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		{Scale: 40, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		{Scale: 10, EdgeFactor: 0, A: 0.57, B: 0.19, C: 0.19, D: 0.05},
		{Scale: 10, EdgeFactor: 16, A: 0.9, B: 0.19, C: 0.19, D: 0.05},
		{Scale: 10, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Noise: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated", i)
		}
	}
}

func TestCounts(t *testing.T) {
	p := Default(12)
	if p.NumVertices() != 4096 {
		t.Errorf("NumVertices = %d", p.NumVertices())
	}
	if p.NumEdges() != 16*4096 {
		t.Errorf("NumEdges = %d", p.NumEdges())
	}
	g := MustGenerate(p)
	if g.NumVertices() != 4096 || g.NumEdges() != uint64(16*4096) {
		t.Errorf("graph V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Edges(Default(10))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Edges(Default(10))
	if !reflect.DeepEqual(a, b) {
		t.Error("same params produced different edges")
	}
	p := Default(10)
	p.Seed = 2
	c, _ := Edges(p)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical edges")
	}
}

func TestEdgesInRange(t *testing.T) {
	p := Default(9)
	edges, err := Edges(p)
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(p.NumVertices())
	for _, e := range edges {
		if e.Src >= n || e.Dst >= n {
			t.Fatalf("edge %v out of range %d", e, n)
		}
	}
}

func TestSkewedDegreeDistribution(t *testing.T) {
	// R-MAT with a = 0.57 must be much more skewed than uniform: the max
	// degree should far exceed the average.
	g := MustGenerate(Default(13))
	avg := g.AvgDegree()
	max := g.MaxDegree()
	if float64(max) < 8*avg {
		t.Errorf("max degree %d not skewed vs avg %.1f", max, avg)
	}
}

func TestNoNoiseStillValid(t *testing.T) {
	p := Default(8)
	p.Noise = 0
	g := MustGenerate(p)
	if g.NumEdges() != uint64(p.NumEdges()) {
		t.Errorf("E = %d", g.NumEdges())
	}
}

func TestMustGeneratePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for invalid params")
		}
	}()
	MustGenerate(Params{})
}

// loopEdges is the sequential generator Edges replaced, kept as its
// oracle: one rand.Rand, one edge after another, the quadrant by a switch.
func loopEdges(p Params) []csr.Edge {
	r := rand.New(rand.NewSource(p.Seed))
	edges := make([]csr.Edge, p.NumEdges())
	for i := range edges {
		edges[i] = loopEdge(r, p)
	}
	return edges
}

func loopEdge(r *rand.Rand, p Params) csr.Edge {
	a, b, c := p.A, p.B, p.C
	var src, dst uint32
	for level := 0; level < p.Scale; level++ {
		u := r.Float64()
		switch {
		case u < a:
			// top-left: no bits set
		case u < a+b:
			dst |= 1 << level
		case u < a+b+c:
			src |= 1 << level
		default:
			src |= 1 << level
			dst |= 1 << level
		}
		if p.Noise > 0 {
			a *= 1 - p.Noise/2 + p.Noise*r.Float64()
			b *= 1 - p.Noise/2 + p.Noise*r.Float64()
			c *= 1 - p.Noise/2 + p.Noise*r.Float64()
			norm := (a + b + c) / (p.A + p.B + p.C)
			a /= norm
			b /= norm
			c /= norm
		}
	}
	return csr.Edge{Src: src, Dst: dst}
}

// sameEdges fails t at the first edge where got and want differ.
func sameEdges(t *testing.T, what string, got, want []csr.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, the loop makes %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d is %v, the loop makes %v", what, i, got[i], want[i])
		}
	}
}

// edgesOn is Edges with GOMAXPROCS set to procs.
func edgesOn(t *testing.T, procs int, p Params) []csr.Edge {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	edges, err := Edges(p)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

// TestEdgesMatchTheLoop holds Edges to the sequential loop edge for edge,
// on one worker and on two, over scales 1-16, edge factors 1, 3 and 16,
// noise and none, and three seeds (one negative). Past scale 13 it takes
// the paper's edge factor and one seed (-short: stops at scale 12).
func TestEdgesMatchTheLoop(t *testing.T) {
	maxScale := 16
	if testing.Short() {
		maxScale = 12
	}
	for scale := 1; scale <= maxScale; scale++ {
		for _, ef := range []int{1, 3, 16} {
			for _, noise := range []float64{0, 0.1} {
				for _, seed := range []int64{1, -7, 1469598103934665603} {
					if scale > 13 && (ef != 16 || seed != 1) {
						continue
					}
					p := Default(scale)
					p.EdgeFactor, p.Noise, p.Seed = ef, noise, seed
					want := loopEdges(p)
					for _, procs := range []int{1, 2} {
						sameEdges(t, fmt.Sprintf("%+v on %d procs", p, procs), edgesOn(t, procs, p), want)
					}
				}
			}
		}
	}
}

// FuzzEdges holds Edges to the sequential loop for any seed, scale 1-12,
// edge factor 1-16 and noise in [0,1), on one worker and on two.
func FuzzEdges(f *testing.F) {
	f.Add(int64(1), 10, 16, 0.1)
	f.Add(int64(-7), 5, 3, 0.0)
	f.Add(int64(math.MinInt64), 12, 1, 0.999)
	f.Fuzz(func(t *testing.T, seed int64, scale, edgeFactor int, noise float64) {
		p := Default(1 + int(uint(scale)%12))
		p.EdgeFactor = 1 + int(uint(edgeFactor)%16)
		p.Seed = seed
		if p.Noise = math.Abs(math.Mod(noise, 1)); math.IsNaN(p.Noise) {
			p.Noise = 0
		}
		want := loopEdges(p)
		for _, procs := range []int{1, 2} {
			sameEdges(t, fmt.Sprintf("%+v on %d procs", p, procs), edgesOn(t, procs, p), want)
		}
	})
}

// lagged is math/rand's source written out: the crafted outputs seed, then
// y[n] = y[n-rngLen] + y[n-rngTap]. out holds every output given so far.
type lagged struct{ seed, out []uint64 }

func (s *lagged) Uint64() uint64 {
	y, n := uint64(0), len(s.out)
	if n < rngLen {
		y = s.seed[n]
	} else {
		y = s.out[n-rngLen] + s.out[n-rngTap]
	}
	s.out = append(s.out, y)
	return y
}

func (s *lagged) Int63() int64 { return int64(s.Uint64() & rngMask) }
func (s *lagged) Seed(int64)   {}

// TestStreamDrawsAgainNearOne crafts outputs that Rand.Float64 rounds to 1
// (they never occur in a real stream's first outputs) and checks that the
// stream drops exactly those, in the first register and in a later one.
func TestStreamDrawsAgainNearOne(t *testing.T) {
	if f := float64(int64(nearOne)) / (1 << 63); f != 1 {
		t.Fatalf("nearOne maps to %v, not 1", f)
	}
	if f := float64(int64(nearOne-1)) / (1 << 63); f >= 1 {
		t.Fatalf("nearOne-1 maps to %v, not below 1", f)
	}
	start := make([]uint64, rngLen)
	r := rand.New(rand.NewSource(3))
	for i := range start {
		start[i] = r.Uint64() >> 2 // far from 1
	}
	start[5] = 1<<63 - 1     // rounds to 1
	start[6] = nearOne       // the least that rounds to 1
	start[7] = nearOne - 1   // kept
	start[8] = 1<<64 - 1     // the top bit is masked off: rounds to 1
	start[9] = 1<<63 | 12345 // kept, as 12345
	// Output rngLen is start[0] + start[rngLen-rngTap]: make it round to 1.
	start[0] = nearOne + 7 - start[rngLen-rngTap]
	src := &lagged{seed: start}
	ref := rand.New(src)
	s := newStream(&lagged{seed: start})
	raw := make([]uint64, 3*rngLen)
	s.take(raw[:10])
	s.take(raw[10:])
	for i, y := range raw {
		if want := ref.Float64(); float(y) != want {
			t.Fatalf("number %d: the stream gives %v, Rand.Float64 %v", i, float(y), want)
		}
	}
	if raw[5] != start[7] || raw[6] != start[9] {
		t.Fatalf("numbers 5 and 6 are outputs %#x and %#x, want %#x and %#x", raw[5], raw[6], start[7], start[9])
	}
	// Three of the first register's outputs were dropped, then output
	// rngLen, which the recurrence made round to 1.
	if src.out[rngLen]&rngMask < nearOne || raw[rngLen-3] != src.out[rngLen+1] {
		t.Fatalf("number %d is %#x, want output %d (%#x): output %d (%#x) rounds to 1", rngLen-3, raw[rngLen-3], rngLen+1, src.out[rngLen+1], rngLen, src.out[rngLen])
	}
}

// BenchmarkEdges generates RMAT27@11's edge list (scale 16, edge factor 16,
// the paper's quadrant probabilities, noise 0.1): ns per edge.
func BenchmarkEdges(b *testing.B) {
	p := Default(16)
	for range b.N {
		if _, err := Edges(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.NumEdges()), "ns/edge")
}
