package dataspace

import "strings"

// Set is a union of disjoint, sorted, non-adjacent intervals. The zero
// value is an empty set ready for use. The mutators in inplace.go reuse
// the set's storage, so a copied Set value is a view that the next
// in-place mutation invalidates; Add is the one mutator that copies.
//
// FirstRunFrom writes the set's finger, so a Set must not be queried from
// two goroutines at once, even when nothing mutates it.
type Set struct {
	ivs []Interval
	// finger is the index FirstRunFrom's last search returned. It is
	// checked before each use, so no mutation has to maintain it; after
	// Reset it may even point past the end.
	finger int
}

// Intervals returns the canonical intervals of s in ascending order.
// The caller must not modify the returned slice.
func (s Set) Intervals() []Interval { return s.ivs }

// Empty reports whether s contains no events.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Len returns the total number of events in s.
func (s Set) Len() int64 {
	var n int64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// searchEnd returns the index of the first interval whose End exceeds e,
// by a branch-free binary search (Khuong & Morin, "Array Layouts for
// Comparison-Based Searching"): the halving loop runs a fixed number of
// rounds for a given length, and the sign bit of e-End, not a
// data-dependent branch, decides whether the base moves. Every interval
// query on the simulator's hot path starts here, and its probes are too
// irregular for a branch predictor. e-End cannot overflow for event
// indices, which are far below 2^62.
func (s Set) searchEnd(e int64) int {
	ivs := s.ivs
	n := len(ivs)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n >> 1
		// ^((e-End)>>63) is all ones when End <= e, zero otherwise.
		base += half & int(^((e - ivs[base+half].End) >> 63))
		n -= half
	}
	return base + int(((ivs[base].End-e-1)>>63)&1)
}

// searchEndFinger is searchEnd for probes that return again and again to
// the same spot: it tries the finger, the previous answer, first — two
// comparisons prove it is still the answer — and searches and moves the
// finger only when they fail.
func (s *Set) searchEndFinger(e int64) int {
	ivs, f := s.ivs, s.finger
	if f <= len(ivs) && (f == 0 || ivs[f-1].End <= e) && (f == len(ivs) || ivs[f].End > e) {
		return f
	}
	f = s.searchEnd(e)
	s.finger = f
	return f
}

// Contains reports whether event e is in s.
func (s Set) Contains(e int64) bool {
	i := s.searchEnd(e)
	return i < len(s.ivs) && s.ivs[i].Contains(e)
}

// ContainsInterval reports whether iv lies entirely inside s.
func (s Set) ContainsInterval(iv Interval) bool {
	if iv.Empty() {
		return true
	}
	i := s.searchEnd(iv.Start)
	return i < len(s.ivs) && s.ivs[i].ContainsInterval(iv)
}

// Add returns s with iv added (merged with any overlapping or adjacent
// intervals).
func (s Set) Add(iv Interval) Set {
	if iv.Empty() {
		return s
	}
	out := make([]Interval, 0, len(s.ivs)+1)
	i := 0
	for ; i < len(s.ivs) && s.ivs[i].End < iv.Start; i++ {
		out = append(out, s.ivs[i])
	}
	for ; i < len(s.ivs) && s.ivs[i].Start <= iv.End; i++ {
		iv = Iv(min64(iv.Start, s.ivs[i].Start), max64(iv.End, s.ivs[i].End))
	}
	out = append(out, iv)
	out = append(out, s.ivs[i:]...)
	return Set{ivs: out}
}

// SetPiece is one run of AppendPartition: a sub-interval and whether it
// was contained in the set.
type SetPiece struct {
	Interval Interval
	InSet    bool
}

func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(iv.String())
	}
	b.WriteByte('}')
	return b.String()
}
