package dataspace

import (
	"math/rand"
	"slices"
	"testing"
)

// bitmapRuns splits iv into maximal runs of equal membership in bits, the
// per-event reference every Set operation is checked against: runs of
// members are the canonical intervals, and the run sequence over a query
// is its partition.
func bitmapRuns(bits []bool, iv Interval) []SetPiece {
	var runs []SetPiece
	for e := iv.Start; e < iv.End; e++ {
		if n := len(runs); n > 0 && runs[n-1].InSet == bits[e] {
			runs[n-1].Interval.End = e + 1
			continue
		}
		runs = append(runs, SetPiece{Iv(e, e+1), bits[e]})
	}
	return runs
}

// TestInPlaceMatchesValueOps drives the in-place/append API through a
// randomised operation sequence and requires, at every step, the
// canonical state and every query result that a per-event bitmap over a
// small universe gives: the value semantics each operation must have.
func TestInPlaceMatchesValueOps(t *testing.T) {
	const universe = 1200
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var inPlace Set
		bits := make([]bool, universe)
		randIv := func() Interval {
			a := rng.Int63n(1000)
			return Iv(a, a+rng.Int63n(100)+1)
		}
		for op := 0; op < 500; op++ {
			iv := randIv()
			add := rng.Intn(3) > 0
			if add {
				inPlace.AddInPlace(iv)
			} else {
				inPlace.RemoveInPlace(iv)
			}
			for e := iv.Start; e < iv.End; e++ {
				bits[e] = add
			}
			var want []Interval
			for _, r := range bitmapRuns(bits, Iv(0, universe)) {
				if r.InSet {
					want = append(want, r.Interval)
				}
			}
			if !slices.Equal(inPlace.Intervals(), want) {
				t.Fatalf("seed %d op %d: in-place %v != reference %v", seed, op, inPlace, want)
			}
			q := randIv()
			runs := bitmapRuns(bits, q)
			var first Interval
			var n int64
			for _, r := range runs {
				if r.InSet {
					if first.Empty() {
						first = r.Interval
					}
					n += r.Interval.Len()
				}
			}
			if got := inPlace.FirstRunIn(q); got != first {
				t.Fatalf("seed %d op %d: FirstRunIn(%v) = %v, want %v", seed, op, q, got, first)
			}
			if got := inPlace.IntersectLen(q); got != n {
				t.Fatalf("seed %d op %d: IntersectLen(%v) = %d, want %d", seed, op, q, got, n)
			}
			if got := inPlace.AppendPartition(q, nil); !slices.Equal(got, runs) {
				t.Fatalf("seed %d op %d: AppendPartition(%v) = %v, want %v", seed, op, q, got, runs)
			}
		}
		inPlace.Reset()
		if !inPlace.Empty() {
			t.Fatalf("seed %d: Reset left %v", seed, inPlace)
		}
	}
}
