package dataspace

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refSet is a brute-force reference implementation over a small universe.
type refSet map[int64]bool

func (r refSet) add(iv Interval)    { forEach(iv, func(e int64) { r[e] = true }) }
func (r refSet) remove(iv Interval) { forEach(iv, func(e int64) { delete(r, e) }) }

func forEach(iv Interval, f func(int64)) {
	for e := iv.Start; e < iv.End; e++ {
		f(e)
	}
}

func sameAsRef(s Set, r refSet, lo, hi int64) bool {
	for e := lo; e < hi; e++ {
		if s.Contains(e) != r[e] {
			return false
		}
	}
	return true
}

func randIv(rng *rand.Rand, universe int64) Interval {
	a := rng.Int63n(universe)
	b := a + rng.Int63n(universe/4+1)
	return Iv(a, b)
}

func TestSetAgainstReference(t *testing.T) {
	const universe = 200
	rng := rand.New(rand.NewSource(1))
	var s Set
	r := refSet{}
	for step := 0; step < 2000; step++ {
		iv := randIv(rng, universe)
		if rng.Intn(2) == 0 {
			s.AddInPlace(iv)
			r.add(iv)
		} else {
			s.RemoveInPlace(iv)
			r.remove(iv)
		}
		if !sameAsRef(s, r, 0, universe+universe/4+2) {
			t.Fatalf("step %d: divergence after op on %v; set=%v", step, iv, s)
		}
		if int64(len(r)) != s.Len() {
			t.Fatalf("step %d: Len=%d, ref=%d", step, s.Len(), len(r))
		}
	}
}

func TestSetCanonicalForm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Set
	for step := 0; step < 500; step++ {
		if rng.Intn(2) == 0 {
			s.AddInPlace(randIv(rng, 300))
		} else {
			s.RemoveInPlace(randIv(rng, 300))
		}
		ivs := s.Intervals()
		for i, iv := range ivs {
			if iv.Empty() {
				t.Fatalf("canonical set holds empty interval %v", iv)
			}
			if i > 0 && ivs[i-1].End >= iv.Start {
				t.Fatalf("intervals not disjoint/sorted/non-adjacent: %v", s)
			}
		}
	}
}

func TestSetAddMergesAdjacent(t *testing.T) {
	s := Set{}.Add(Iv(0, 5)).Add(Iv(5, 10))
	if len(s.Intervals()) != 1 || s.Intervals()[0] != Iv(0, 10) {
		t.Errorf("adjacent intervals not merged by Add: %v", s)
	}
	var p Set
	p.AddInPlace(Iv(5, 10))
	p.AddInPlace(Iv(0, 5))
	if len(p.Intervals()) != 1 || p.Intervals()[0] != Iv(0, 10) {
		t.Errorf("adjacent intervals not merged by AddInPlace: %v", p)
	}
}

func TestSetContainsInterval(t *testing.T) {
	s := Set{}.Add(Iv(20, 30)).Add(Iv(0, 10))
	cases := []struct {
		iv   Interval
		want bool
	}{
		{Iv(0, 10), true},
		{Iv(2, 8), true},
		{Iv(5, 15), false},
		{Iv(10, 20), false},
		{Iv(25, 25), true}, // empty interval is trivially contained
		{Iv(20, 30), true},
		{Iv(19, 30), false},
	}
	for _, c := range cases {
		if got := s.ContainsInterval(c.iv); got != c.want {
			t.Errorf("ContainsInterval(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestIntersectAndSubtractPartitionInterval(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		for i := 0; i < 10; i++ {
			s.AddInPlace(randIv(rng, 500))
		}
		iv := randIv(rng, 500)
		// The parts of iv in s and the parts not in s partition iv: the
		// former hold exactly IntersectLen events, the latter none of s.
		var in, out int64
		for _, p := range s.AppendPartition(iv, nil) {
			switch {
			case p.InSet:
				in += p.Interval.Len()
			case s.IntersectLen(p.Interval) != 0:
				return false
			default:
				out += p.Interval.Len()
			}
		}
		return in == s.IntersectLen(iv) && in+out == iv.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		for i := 0; i < 8; i++ {
			s.AddInPlace(randIv(rng, 400))
		}
		iv := randIv(rng, 400)
		pieces := s.AppendPartition(iv, nil)
		pos := iv.Start
		for _, p := range pieces {
			if p.Interval.Start != pos || p.Interval.Empty() {
				return false
			}
			if p.InSet != s.ContainsInterval(p.Interval) {
				return false
			}
			if !p.InSet && s.IntersectLen(p.Interval) != 0 {
				return false
			}
			pos = p.Interval.End
		}
		return pos == iv.End || (iv.Empty() && len(pieces) == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPartitionAlternates(t *testing.T) {
	s := Set{}.Add(Iv(10, 20)).Add(Iv(30, 40))
	pieces := s.AppendPartition(Iv(0, 50), nil)
	want := []SetPiece{
		{Iv(0, 10), false},
		{Iv(10, 20), true},
		{Iv(20, 30), false},
		{Iv(30, 40), true},
		{Iv(40, 50), false},
	}
	if len(pieces) != len(want) {
		t.Fatalf("got %d pieces, want %d: %v", len(pieces), len(want), pieces)
	}
	for i := range want {
		if pieces[i] != want[i] {
			t.Errorf("piece %d = %v, want %v", i, pieces[i], want[i])
		}
	}
}

func TestUnionIntersectLaws(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Set {
			var s Set
			for i := 0; i < 6; i++ {
				s.AddInPlace(randIv(rng, 300))
			}
			return s
		}
		a, b := mk(), mk()
		union := func(x, y Set) Set {
			var u Set
			for _, iv := range x.Intervals() {
				u.AddInPlace(iv)
			}
			for _, iv := range y.Intervals() {
				u.AddInPlace(iv)
			}
			return u
		}
		intersectLen := func(x, y Set) int64 {
			var n int64
			for _, iv := range y.Intervals() {
				n += x.IntersectLen(iv)
			}
			return n
		}
		// Commutativity of union and intersection on Len.
		ab, ba := union(a, b), union(b, a)
		if ab.Len() != ba.Len() || !slices.Equal(ab.Intervals(), ba.Intervals()) {
			return false
		}
		ia, ib := intersectLen(a, b), intersectLen(b, a)
		if ia != ib {
			return false
		}
		// Inclusion–exclusion.
		return ab.Len() == a.Len()+b.Len()-ia
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSetAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ivs := make([]Interval, 1024)
	for i := range ivs {
		ivs[i] = randIv(rng, 1_000_000)
	}
	b.ResetTimer()
	var s Set
	for i := 0; i < b.N; i++ {
		s = s.Add(ivs[i%len(ivs)])
		if i%4096 == 0 {
			s = Set{}
		}
	}
}

func BenchmarkSetPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var s Set
	for i := 0; i < 500; i++ {
		s = s.Add(randIv(rng, 3_000_000))
	}
	var buf []SetPiece
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.AppendPartition(Iv(int64(i%2_000_000), int64(i%2_000_000)+30_000), buf[:0])
	}
}

// BenchmarkSetFirstRunFrom measures one probe of a monotone scan over a
// set of about 2,000 short intervals, the per-node step of
// cache.Index.AppendPartitionByNode: every 16 probes the scan restarts
// elsewhere without a hint.
func BenchmarkSetFirstRunFrom(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var s Set
	for i := 0; i < 2_000; i++ {
		a := rng.Int63n(3_000_000)
		s.AddInPlace(Iv(a, a+1+rng.Int63n(2_000)))
	}
	starts := make([]int64, 1024)
	for i := range starts {
		starts[i] = rng.Int63n(2_000_000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pos int64
	hint := -1
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			pos, hint = starts[(i/16)%len(starts)], -1
		}
		var run Interval
		run, hint = s.FirstRunFrom(Iv(pos, pos+30_000), hint)
		pos += 1 + run.Len() + 1_000
	}
}
