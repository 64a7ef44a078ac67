package dataspace

// This file holds the allocation-free Set operations: in-place mutators
// for owners of a long-lived set (the node disk caches, the delayed
// policy's period union) and queries that write into caller-owned scratch
// buffers (the per-dispatch planning paths). The simulator's hot loop
// performs millions of cache updates and plan partitions per run, so
// these are the only set operations it has.

// Reset empties the set, keeping its storage for reuse.
func (s *Set) Reset() { s.ivs = s.ivs[:0] }

// AddInPlace adds iv to s, merging overlapping or adjacent intervals,
// reusing s's storage. Any previously obtained view of s (Intervals, a
// copy of the Set value) is invalidated.
func (s *Set) AddInPlace(iv Interval) {
	if iv.Empty() {
		return
	}
	ivs := s.ivs
	// [i, j) is the run of intervals merged into iv: every interval whose
	// end reaches iv.Start (adjacency merges) and whose start is ≤ iv.End.
	i := s.searchEnd(iv.Start - 1)
	j := i
	for ; j < len(ivs) && ivs[j].Start <= iv.End; j++ {
		iv = Iv(min64(iv.Start, ivs[j].Start), max64(iv.End, ivs[j].End))
	}
	switch {
	case i == j: // nothing merged: open a slot
		ivs = append(ivs, Interval{})
		copy(ivs[i+1:], ivs[i:])
		ivs[i] = iv
	default: // replace the merged run with the single merged interval
		ivs[i] = iv
		ivs = append(ivs[:i+1], ivs[j:]...)
	}
	s.ivs = ivs
}

// RemoveInPlace removes every event of iv from s, reusing s's storage.
// Any previously obtained view of s is invalidated.
func (s *Set) RemoveInPlace(iv Interval) {
	if iv.Empty() || len(s.ivs) == 0 {
		return
	}
	ivs := s.ivs
	i := s.searchEnd(iv.Start)
	j := i
	// Only the first overlapped interval can leave a left remnant and only
	// the last a right remnant; everything between vanishes.
	var left, right Interval
	for ; j < len(ivs) && ivs[j].Start < iv.End; j++ {
		cur := ivs[j]
		if l := Iv(cur.Start, min64(cur.End, iv.Start)); !l.Empty() {
			left = l
		}
		if r := Iv(max64(cur.Start, iv.End), cur.End); !r.Empty() {
			right = r
		}
	}
	keep := 0
	if !left.Empty() {
		keep++
	}
	if !right.Empty() {
		keep++
	}
	old := j - i
	if keep > old { // one interval split in two: open a slot
		ivs = append(ivs, Interval{})
		copy(ivs[j+1:], ivs[j:])
		j++
	}
	w := i
	if !left.Empty() {
		ivs[w] = left
		w++
	}
	if !right.Empty() {
		ivs[w] = right
		w++
	}
	if w < j {
		ivs = append(ivs[:w], ivs[j:]...)
	}
	s.ivs = ivs
}

// FirstRunIn returns the first (lowest) maximal run of iv present in s,
// or an empty interval when s covers none of iv.
func (s Set) FirstRunIn(iv Interval) Interval {
	if iv.Empty() {
		return Interval{}
	}
	i := s.searchEnd(iv.Start)
	if i < len(s.ivs) && s.ivs[i].Start < iv.End {
		return s.ivs[i].Intersect(iv)
	}
	return Interval{}
}

// FirstRunFrom is FirstRunIn with a resumable cursor for callers that
// probe the same unchanged set with monotonically increasing iv.Start
// (the per-node scans of Index.AppendPartitionByNode). A negative hint
// positions through the set's finger: most scans of a node cache start
// where the previous unhinted call landed, and the others binary-search.
// A hint returned by a previous call on the same set advances linearly,
// which is O(1) amortised over a sweep. The returned hint is only valid
// until the set is mutated.
func (s *Set) FirstRunFrom(iv Interval, hint int) (Interval, int) {
	if iv.Empty() {
		return Interval{}, hint
	}
	ivs, i := s.ivs, hint
	if i < 0 {
		i = s.searchEndFinger(iv.Start)
	} else {
		for i < len(ivs) && ivs[i].End <= iv.Start {
			i++
		}
	}
	if i < len(ivs) && ivs[i].Start < iv.End {
		return ivs[i].Intersect(iv), i
	}
	return Interval{}, i
}

// IntersectLen returns the number of events of iv present in s, without
// materialising the intersection.
func (s Set) IntersectLen(iv Interval) int64 {
	var n int64
	for i := s.searchEnd(iv.Start); i < len(s.ivs) && s.ivs[i].Start < iv.End; i++ {
		n += s.ivs[i].Intersect(iv).Len()
	}
	return n
}

// AppendPartition splits iv into maximal runs that are alternately fully
// inside and fully outside s and appends them to dst. Each piece carries
// whether it was in s; the pieces are contiguous, in order, and exactly
// cover iv.
func (s Set) AppendPartition(iv Interval, dst []SetPiece) []SetPiece {
	if iv.Empty() {
		return dst
	}
	pos := iv.Start
	for i := s.searchEnd(iv.Start); i < len(s.ivs) && s.ivs[i].Start < iv.End; i++ {
		in := s.ivs[i].Intersect(iv)
		if in.Empty() {
			continue
		}
		if pos < in.Start {
			dst = append(dst, SetPiece{Iv(pos, in.Start), false})
		}
		dst = append(dst, SetPiece{in, true})
		pos = in.End
	}
	if pos < iv.End {
		dst = append(dst, SetPiece{Iv(pos, iv.End), false})
	}
	return dst
}
