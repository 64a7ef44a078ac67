package dataspace

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refFirstRun is FirstRunIn over the brute-force reference.
func refFirstRun(r refSet, iv Interval) Interval {
	e := iv.Start
	for e < iv.End && !r[e] {
		e++
	}
	start := e
	for e < iv.End && r[e] {
		e++
	}
	return Iv(start, e)
}

// refPartition is AppendPartition over the brute-force reference.
func refPartition(r refSet, iv Interval) []SetPiece {
	var out []SetPiece
	for e := iv.Start; e < iv.End; e++ {
		if n := len(out); n > 0 && out[n-1].InSet == r[e] {
			out[n-1].Interval.End = e + 1
			continue
		}
		out = append(out, SetPiece{Iv(e, e+1), r[e]})
	}
	return out
}

// TestFingerSearchMatchesReferenceModel drives a Set and a brute-force
// reference through the same randomised mix of in-place mutations and
// queries. Queries cluster around the previous one, so the finger is
// reused, moved by one and missed, as on the simulator's hot path, and
// Reset often leaves it past the end of the set. Every query must agree
// with the reference, and every search, with or without the finger,
// with a sort.Search over the intervals.
func TestFingerSearchMatchesReferenceModel(t *testing.T) {
	const universe = 400
	pastEnd := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		r := refSet{}
		near := int64(0)
		point := func() int64 {
			if rng.Intn(4) == 0 {
				near = rng.Int63n(universe + 20)
			} else {
				near += rng.Int63n(9) - 4
			}
			return near
		}
		query := func() Interval {
			a := point()
			return Iv(a, a+rng.Int63n(40))
		}
		for step := 0; step < 600; step++ {
			if s.finger > len(s.ivs) {
				pastEnd++
			}
			switch op := rng.Intn(20); {
			case op < 4:
				iv := randIv(rng, universe)
				s.AddInPlace(iv)
				r.add(iv)
			case op < 8:
				iv := randIv(rng, universe)
				s.RemoveInPlace(iv)
				r.remove(iv)
			case op < 9:
				s.Reset()
				clear(r)
			case op < 11:
				e := point()
				if got := s.Contains(e); got != r[e] {
					t.Errorf("seed %d step %d: Contains(%d) = %v on %v", seed, step, e, got, s)
					return false
				}
			case op < 13:
				iv := query()
				if got, want := s.FirstRunIn(iv), refFirstRun(r, iv); got.Len() != want.Len() || (!got.Empty() && got != want) {
					t.Errorf("seed %d step %d: FirstRunIn(%v) = %v, want %v on %v", seed, step, iv, got, want, s)
					return false
				}
			case op < 15:
				// A monotone sweep with a resumable hint, the way
				// AppendPartitionByNode scans each node's cache.
				iv := query()
				hint := -1
				for pos := iv.Start; pos < iv.End; pos += 1 + rng.Int63n(5) {
					var got Interval
					got, hint = s.FirstRunFrom(Iv(pos, iv.End), hint)
					want := refFirstRun(r, Iv(pos, iv.End))
					if got.Len() != want.Len() || (!got.Empty() && got != want) {
						t.Errorf("seed %d step %d: FirstRunFrom(%v) = %v, want %v on %v", seed, step, Iv(pos, iv.End), got, want, s)
						return false
					}
				}
			case op < 17:
				iv := query()
				want := int64(0)
				forEach(iv, func(e int64) {
					if r[e] {
						want++
					}
				})
				if got := s.IntersectLen(iv); got != want {
					t.Errorf("seed %d step %d: IntersectLen(%v) = %d, want %d on %v", seed, step, iv, got, want, s)
					return false
				}
			case op < 19:
				iv := query()
				got, want := s.AppendPartition(iv, nil), refPartition(r, iv)
				if len(got) != len(want) {
					t.Errorf("seed %d step %d: AppendPartition(%v) = %v, want %v on %v", seed, step, iv, got, want, s)
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("seed %d step %d: AppendPartition(%v) = %v, want %v on %v", seed, step, iv, got, want, s)
						return false
					}
				}
			default:
				e := point()
				want := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > e })
				if got := s.searchEnd(e); got != want {
					t.Errorf("seed %d step %d: searchEnd(%d) = %d, want %d on %v", seed, step, e, got, want, s)
					return false
				}
				if got := s.searchEndFinger(e); got != want || s.finger != want {
					t.Errorf("seed %d step %d: searchEndFinger(%d) = %d (finger %d), want %d on %v", seed, step, e, got, s.finger, want, s)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if pastEnd == 0 {
		t.Error("no query ran with the finger past the end of the set")
	}
}

// TestFingerPastEndAfterShrink pins the case the randomised test only
// reaches by chance: a search leaves the finger at the end of a long
// set, Reset empties the set under it, and the next searches must
// neither trust nor index through the stale finger.
func TestFingerPastEndAfterShrink(t *testing.T) {
	var s Set
	for i := int64(0); i < 10; i++ {
		s.AddInPlace(Iv(10*i, 10*i+5))
	}
	if run, _ := s.FirstRunFrom(Iv(96, 100), -1); !run.Empty() || s.finger != 10 {
		t.Fatalf("setup: finger %d, want 10", s.finger)
	}
	s.Reset()
	if run, i := s.FirstRunFrom(Iv(0, 100), -1); !run.Empty() || i != 0 {
		t.Errorf("FirstRunFrom after Reset = %v, %d", run, i)
	}
	s.AddInPlace(Iv(40, 50))
	s.finger = 10
	if run, i := s.FirstRunFrom(Iv(0, 100), -1); run != Iv(40, 50) || i != 0 {
		t.Errorf("FirstRunFrom with a stale finger = %v, %d on %v", run, i, s)
	}
	s.finger = 10
	if run, i := s.FirstRunFrom(Iv(50, 100), -1); !run.Empty() || i != 1 {
		t.Errorf("FirstRunFrom past the set with a stale finger = %v, %d on %v", run, i, s)
	}
}

// TestSearchEndBranchFree checks the branch-free search against
// sort.Search on every length up to 40 and every probe around the keys.
func TestSearchEndBranchFree(t *testing.T) {
	for n := 0; n <= 40; n++ {
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = Iv(int64(3*i), int64(3*i+2))
		}
		for e := int64(-2); e <= int64(3*n+2); e++ {
			want := sort.Search(n, func(i int) bool { return ivs[i].End > e })
			if got := (Set{ivs: ivs}).searchEnd(e); got != want {
				t.Fatalf("n=%d: searchEnd(%d) = %d, want %d", n, e, got, want)
			}
		}
	}
}
