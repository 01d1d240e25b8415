package csr

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Graph {
	return MustFromEdges(5, []Edge{
		{0, 1}, {0, 2}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {3, 1},
	})
}

func TestFromEdgesBasics(t *testing.T) {
	g := sample()
	if g.NumVertices() != 5 || g.NumEdges() != 7 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if got := g.Out(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Errorf("Out(0) = %v", got)
	}
	if got := g.Out(3); !reflect.DeepEqual(got, []uint32{4, 1}) {
		t.Errorf("Out(3) = %v (insertion order must be kept)", got)
	}
	if g.Degree(4) != 0 {
		t.Errorf("Degree(4) = %d", g.Degree(4))
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if g.AvgDegree() != 7.0/5.0 {
		t.Errorf("AvgDegree = %v", g.AvgDegree())
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{0, 3}}); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if _, err := FromEdges(3, []Edge{{7, 0}}); err == nil {
		t.Error("out-of-range src accepted")
	}
}

func TestNeighborsMatchesOut(t *testing.T) {
	g := sample()
	for v := uint64(0); v < g.NumVertices(); v++ {
		var got []uint32
		g.Neighbors(v, func(d uint64) { got = append(got, uint32(d)) })
		want := g.Out(uint32(v))
		if len(got) != len(want) {
			t.Fatalf("v%d: %v vs %v", v, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("v%d: %v vs %v", v, got, want)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	// Property: transpose twice restores edge multiset per vertex.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		var edges []Edge
		for i := 0; i < r.Intn(200); i++ {
			edges = append(edges, Edge{uint32(r.Intn(n)), uint32(r.Intn(n))})
		}
		g := MustFromEdges(n, edges)
		tt := g.Transpose().Transpose()
		g.SortAdjacency()
		tt.SortAdjacency()
		return reflect.DeepEqual(g.targets, tt.targets) && reflect.DeepEqual(g.offsets, tt.offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTransposeEdges(t *testing.T) {
	g := sample()
	rev := g.Transpose()
	if rev.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d", rev.NumEdges())
	}
	// Edge 2->3 must appear as 3->2 in the transpose.
	found := false
	rev.Neighbors(3, func(d uint64) {
		if d == 2 {
			found = true
		}
	})
	if !found {
		t.Error("edge 2->3 missing from transpose as 3->2")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := sample()
	g2 := MustFromEdges(int(g.NumVertices()), g.Edges())
	if !reflect.DeepEqual(g.targets, g2.targets) || !reflect.DeepEqual(g.offsets, g2.offsets) {
		t.Error("Edges() round trip changed the graph")
	}
}

func TestUndirectedSymmetricAndDeduped(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 3}})
	u := g.Undirected()
	if got := u.Out(0); !reflect.DeepEqual(got, []uint32{1}) {
		t.Errorf("Out(0) = %v, want [1]", got)
	}
	if got := u.Out(1); !reflect.DeepEqual(got, []uint32{0}) {
		t.Errorf("Out(1) = %v, want [0]", got)
	}
	if got := u.Out(3); !reflect.DeepEqual(got, []uint32{2}) {
		t.Errorf("Out(3) = %v, want [2]", got)
	}
}

func TestBytesEstimate(t *testing.T) {
	g := sample()
	want := int64(6*8 + 7*4)
	if got := g.Bytes(); got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := MustFromEdges(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.AvgDegree() != 0 {
		t.Error("empty graph misbehaves")
	}
}

func TestReadEdgeList(t *testing.T) {
	input := `# a comment
% another comment
0 1
1 2  extra-column-ignored
2 0

3 1
`
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if got := g.Out(3); !reflect.DeepEqual(got, []uint32{1}) {
		t.Errorf("Out(3) = %v", got)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"justone\n",
		"a b\n",
		"0 x\n",
		"-1 2\n",
		"0 99999999999\n",
	}
	for i, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadEdgeListRoundTripsGenerated(t *testing.T) {
	g := sample()
	var sb strings.Builder
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d %d\n", e.Src, e.Dst)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Error("round trip mismatch")
	}
}
