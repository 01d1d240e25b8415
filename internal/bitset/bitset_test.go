package bitset

import (
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Len() != 130 || s.Any() || s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if !s.Get(0) || !s.Get(64) || !s.Get(129) || s.Get(1) {
		t.Error("Get/Set broken")
	}
	if s.Count() != 3 || !s.Any() {
		t.Errorf("Count = %d", s.Count())
	}
	s.Clear(64)
	if s.Get(64) || s.Count() != 2 {
		t.Error("Clear broken")
	}
	s.Reset()
	if s.Any() {
		t.Error("Reset broken")
	}
}

func TestForEachAscending(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 127, 128, 199}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestOrAndClone(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	b.Set(2)
	c := a.Clone()
	c.Or(b)
	if !c.Get(1) || !c.Get(2) || c.Count() != 2 {
		t.Error("Or broken")
	}
	if a.Get(2) {
		t.Error("Clone aliases original")
	}
}

func TestOrLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	New(10).Or(New(20))
}

func TestCountMatchesForEach(t *testing.T) {
	f := func(idxs []uint16) bool {
		s := New(1 << 16)
		for _, i := range idxs {
			s.Set(int(i))
		}
		n := 0
		s.ForEach(func(int) { n++ })
		return n == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestNextSetMatchesScan: NextSet over any window agrees with a bit-by-bit
// scan of the same window, across word boundaries and empty words.
func TestNextSetMatchesScan(t *testing.T) {
	f := func(idxs []uint8, from, width uint8) bool {
		s := New(320)
		for _, i := range idxs {
			s.Set(int(i) + int(i)/4) // spread over five words
		}
		lo := int(from)
		hi := min(lo+int(width), s.Len())
		want := hi
		for i := lo; i < hi; i++ {
			if s.Get(i) {
				want = i
				break
			}
		}
		return s.NextSet(lo, hi) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	s := New(256)
	s.Set(255)
	if got := s.NextSet(0, 256); got != 255 {
		t.Errorf("NextSet over three clear words = %d, want 255", got)
	}
	if got := s.NextSet(0, 255); got != 255 {
		t.Errorf("NextSet short of the set bit = %d, want the window's end", got)
	}
}

func TestBytes(t *testing.T) {
	if got := New(130).Bytes(); got != 24 {
		t.Errorf("Bytes = %d, want 3 words", got)
	}
}
