package dataspace

import "strings"

// Set is a union of disjoint, sorted, non-adjacent intervals. The zero
// value is an empty set ready for use. The mutators in inplace.go reuse
// the set's storage, so a copied Set value is a view that the next
// in-place mutation invalidates; Add is the one mutator that copies.
type Set struct {
	ivs []Interval
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

// searchEnd returns the index of the first interval whose End exceeds e.
// Hand-rolled binary search: this underlies every interval query on the
// simulator's hot path and the sort.Search closure overhead is measurable.
func (s Set) searchEnd(e int64) int {
	lo, hi := 0, len(s.ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ivs[mid].End > e {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
