// Package bitset provides a dense bit vector: the GTS engine's one page set
// per run (the paper's nextPIDSet, §3.3, which a traversal's plan rebuilds
// each level), SSSP's two frontier sets, the multi-source BFS's per-lane
// page sets, and the baseline engines' vertex frontiers.
package bitset

import "math/bits"

// Set is a fixed-size bit vector. The zero value is unusable; call New.
type Set struct {
	words []uint64
	n     int
}

// New returns a set over n bits, all clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len reports the set's capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports bit i.
func (s *Set) Get(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Bytes is the set's footprint: its words, eight bytes each.
func (s *Set) Bytes() int64 { return int64(len(s.words)) * 8 }

// NextSet returns the first set bit in [from, to), or to when there is
// none. A clear word skips 64 bits at once.
func (s *Set) NextSet(from, to int) int {
	if from >= to {
		return to
	}
	wi := from >> 6
	if w := s.words[wi] >> (uint(from) & 63); w != 0 {
		return min(from+bits.TrailingZeros64(w), to)
	}
	for last := (to - 1) >> 6; wi < last; {
		wi++
		if w := s.words[wi]; w != 0 {
			return min(wi<<6+bits.TrailingZeros64(w), to)
		}
	}
	return to
}

// Count reports the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Or merges other into s (s |= other). Both sets must have equal length.
func (s *Set) Or(other *Set) {
	if other.n != s.n {
		panic("bitset: length mismatch in Or")
	}
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// ForEach calls fn with each set bit's index in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &^= 1 << uint(b)
		}
	}
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}
