package job

import (
	"math/rand"
	"testing"
	"testing/quick"

	"physched/internal/dataspace"
)

func TestSplitEqualBasic(t *testing.T) {
	parts := AppendSplitEqual(nil, dataspace.Iv(0, 100), 4, 10)
	if len(parts) != 4 {
		t.Fatalf("got %d parts, want 4", len(parts))
	}
	for _, p := range parts {
		if p.Len() != 25 {
			t.Errorf("part %v has len %d, want 25", p, p.Len())
		}
	}
}

func TestSplitEqualUneven(t *testing.T) {
	parts := AppendSplitEqual(nil, dataspace.Iv(0, 103), 4, 10)
	var total int64
	pos := int64(0)
	for _, p := range parts {
		if p.Start != pos {
			t.Fatalf("parts not contiguous: %v", parts)
		}
		total += p.Len()
		pos = p.End
	}
	if total != 103 {
		t.Errorf("parts cover %d events, want 103", total)
	}
	// Sizes differ by at most 1.
	if parts[0].Len()-parts[len(parts)-1].Len() > 1 {
		t.Errorf("uneven split: %v", parts)
	}
}

func TestSplitEqualRespectsMinimum(t *testing.T) {
	parts := AppendSplitEqual(nil, dataspace.Iv(0, 35), 10, 10)
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3 (35 events / min 10)", len(parts))
	}
	for _, p := range parts {
		if p.Len() < 10 {
			t.Errorf("part %v below minimum", p)
		}
	}
}

func TestSplitEqualTinyInterval(t *testing.T) {
	parts := AppendSplitEqual(nil, dataspace.Iv(0, 5), 10, 10)
	if len(parts) != 1 || parts[0] != dataspace.Iv(0, 5) {
		t.Errorf("tiny interval should yield itself: %v", parts)
	}
	if AppendSplitEqual(nil, dataspace.Interval{}, 3, 10) != nil {
		t.Error("empty interval should yield nil")
	}
}

func TestSplitEqualProperty(t *testing.T) {
	prop := func(startRaw, lenRaw int64, nRaw int) bool {
		start := startRaw % 1_000_000
		length := lenRaw%100_000 + 1
		if length < 1 {
			length = -length + 1
		}
		n := nRaw%20 + 1
		if n < 1 {
			n = -n + 1
		}
		iv := dataspace.Iv(start, start+length)
		parts := AppendSplitEqual(nil, iv, n, 10)
		var total int64
		pos := iv.Start
		for _, p := range parts {
			if p.Start != pos || p.Empty() {
				return false
			}
			total += p.Len()
			pos = p.End
		}
		return total == iv.Len() && pos == iv.End && len(parts) <= n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJobRemaining(t *testing.T) {
	j := &Job{Range: dataspace.Iv(0, 1000)}
	if j.Remaining() != 1000 || j.Events() != 1000 {
		t.Errorf("Remaining=%d Events=%d", j.Remaining(), j.Events())
	}
	j.Processed = 400
	if j.Remaining() != 600 {
		t.Errorf("Remaining = %d, want 600", j.Remaining())
	}
}

func TestSplitForJob(t *testing.T) {
	j := &Job{ID: 7, Range: dataspace.Iv(0, 100)}
	subs := SplitForJob(j, AppendSplitEqual(nil, j.Range, 2, 10))
	if len(subs) != 2 || subs[0].Job != j || subs[1].Events() != 50 {
		t.Errorf("SplitForJob = %v", subs)
	}
}

func TestStripePointsMaxStripe(t *testing.T) {
	hull := dataspace.Iv(0, 1000)
	pts, _ := AppendStripePoints(nil, nil, nil, hull, 300)
	// No stripe may exceed 300.
	for i := 1; i < len(pts); i++ {
		if pts[i]-pts[i-1] > 300 {
			t.Errorf("stripe %d-%d exceeds 300", pts[i-1], pts[i])
		}
	}
	if pts[0] != 0 || pts[len(pts)-1] != 1000 {
		t.Errorf("hull ends missing: %v", pts)
	}
}

func TestStripePointsDropsSmallStripes(t *testing.T) {
	hull := dataspace.Iv(0, 1000)
	// 490 and 510 are only 20 apart; with stripe 300 (half = 150), 510
	// must be dropped after 490 is kept... then re-added stripes ≤ 300.
	pts, _ := AppendStripePoints(nil, nil, []int64{490, 510}, hull, 300)
	for i := 1; i < len(pts); i++ {
		d := pts[i] - pts[i-1]
		if d > 300 {
			t.Errorf("stripe too large: %v", pts)
		}
		if d < 150 && pts[i] != 1000 {
			t.Errorf("stripe too small at %d: %v", pts[i], pts)
		}
	}
}

func TestStripePointsRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		hull := dataspace.Iv(0, 1_000+rng.Int63n(100_000))
		stripe := int64(100 + rng.Int63n(5_000))
		var bs []int64
		for i := 0; i < rng.Intn(30); i++ {
			bs = append(bs, rng.Int63n(hull.End))
		}
		pts, _ := AppendStripePoints(nil, nil, bs, hull, stripe)
		if pts[0] != hull.Start || pts[len(pts)-1] != hull.End {
			t.Fatalf("hull ends missing: %v", pts)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i] <= pts[i-1] {
				t.Fatalf("points not ascending: %v", pts)
			}
			if pts[i]-pts[i-1] > stripe {
				t.Fatalf("stripe exceeds %d: %v", stripe, pts)
			}
		}
	}
}

func TestCutAtPoints(t *testing.T) {
	iv := dataspace.Iv(10, 50)
	parts := AppendCutAtPoints(nil, iv, []int64{0, 20, 30, 50, 70})
	want := []dataspace.Interval{
		dataspace.Iv(10, 20), dataspace.Iv(20, 30), dataspace.Iv(30, 50),
	}
	if len(parts) != len(want) {
		t.Fatalf("parts = %v, want %v", parts, want)
	}
	for i := range want {
		if parts[i] != want[i] {
			t.Errorf("part %d = %v, want %v", i, parts[i], want[i])
		}
	}
}
