package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExponentialMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Summary
	const mean = 500.0
	for i := 0; i < 200_000; i++ {
		s.Add(Exponential(rng, mean))
	}
	if math.Abs(s.Mean()-mean) > 0.02*mean {
		t.Errorf("mean = %v, want ≈ %v", s.Mean(), mean)
	}
	if math.Abs(s.Std()-mean) > 0.03*mean {
		t.Errorf("std = %v, want ≈ %v", s.Std(), mean)
	}
}

func TestErlangMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const shape, mean = 4, 30_000.0
	var s Summary
	for i := 0; i < 200_000; i++ {
		s.Add(Erlang(rng, shape, mean))
	}
	if math.Abs(s.Mean()-mean) > 0.02*mean {
		t.Errorf("mean = %v, want ≈ %v", s.Mean(), mean)
	}
	wantStd := mean / math.Sqrt(shape)
	if math.Abs(s.Std()-wantStd) > 0.03*wantStd {
		t.Errorf("std = %v, want ≈ %v", s.Std(), wantStd)
	}
	if s.Min() <= 0 {
		t.Errorf("Erlang produced non-positive variate %v", s.Min())
	}
}

func TestErlangShapeOnePanicsOnZeroShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Erlang(0) did not panic")
		}
	}()
	Erlang(rand.New(rand.NewSource(1)), 0, 10)
}

func TestPoissonProcessRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewPoissonProcess(rng, 2.0, 0) // 2 events per unit time
	var last float64
	const n = 100_000
	for i := 0; i < n; i++ {
		now := p.Next()
		if now <= last {
			t.Fatal("arrival times must strictly increase")
		}
		last = now
	}
	rate := n / last
	if math.Abs(rate-2.0) > 0.05 {
		t.Errorf("empirical rate = %v, want ≈ 2", rate)
	}
}

func TestSummaryKnownValues(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Errorf("N=%d Mean=%v", s.N(), s.Mean())
	}
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min=%v Max=%v", s.Min(), s.Max())
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	prop := func(xs []float64) bool {
		var s Summary
		var sum float64
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip pathological inputs
			}
			s.Add(x)
			sum += x
		}
		if len(xs) > 0 {
			ok = math.Abs(s.Mean()-sum/float64(len(xs))) < 1e-6*(1+math.Abs(sum))
		}
		return ok
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty slice should be NaN")
	}
}

func TestLinearTrend(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9}
	if got := LinearTrend(xs, ys); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", got)
	}
	flat := []float64{5, 5, 5, 5, 5}
	if got := LinearTrend(xs, flat); got != 0 {
		t.Errorf("flat slope = %v, want 0", got)
	}
	if got := LinearTrend(nil, nil); got != 0 {
		t.Errorf("empty slope = %v, want 0", got)
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(60, 7*86400, 4) // 1 minute .. 1 week
	h.Add(0)                             // underflow
	h.Add(30)                            // underflow
	h.Add(3600)                          // 1 h
	h.Add(3600)
	h.Add(86400)           // 1 day
	h.Add(100 * 7 * 86400) // clamps to last bucket
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
	var sum int64
	for _, b := range h.Buckets() {
		if b.Lo >= b.Hi {
			t.Errorf("bucket %v inverted", b)
		}
		sum += b.Count
	}
	if sum != 4 {
		t.Errorf("bucket counts sum to %d, want 4", sum)
	}
	if s := h.String(); s == "" {
		t.Error("String() empty")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		sec  float64
		want string
	}{
		{30, "30s"},
		{90, "1.5mn"},
		{7200, "2.0h"},
		{86400 * 2, "2.0day"},
		{7 * 86400 * 2, "2.0week"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.sec); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.sec, got, c.want)
		}
	}
}

func TestThinnedPoissonZeroRatePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewThinnedPoisson(rng, func(float64) float64 { return 0 }, 1000, 0)
	defer func() {
		if recover() == nil {
			t.Error("zero-rate thinned Poisson did not panic")
		}
	}()
	p.Next()
}
