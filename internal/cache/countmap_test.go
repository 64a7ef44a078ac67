package cache

import (
	"math/rand"
	"testing"

	"physched/internal/dataspace"
)

func TestCountMapIncrement(t *testing.T) {
	var m CountMap
	if got := m.Increment(dataspace.Iv(0, 10)); got != 1 {
		t.Errorf("first increment min = %d, want 1", got)
	}
	if got := m.Increment(dataspace.Iv(0, 10)); got != 2 {
		t.Errorf("second increment min = %d, want 2", got)
	}
	// Partially overlapping: new part has count 1, so min is 1.
	if got := m.Increment(dataspace.Iv(5, 15)); got != 1 {
		t.Errorf("partial increment min = %d, want 1", got)
	}
	if got := m.Count(7); got != 3 {
		t.Errorf("Count(7) = %d, want 3", got)
	}
	if got := m.Count(12); got != 1 {
		t.Errorf("Count(12) = %d, want 1", got)
	}
	if got := m.Count(100); got != 0 {
		t.Errorf("Count(100) = %d, want 0", got)
	}
}

func TestCountMapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var m CountMap
	ref := map[int64]int64{}
	const universe = 300
	for step := 0; step < 3000; step++ {
		a := rng.Int63n(universe)
		iv := dataspace.Iv(a, a+1+rng.Int63n(60))
		gotMin := m.Increment(iv)
		wantMin := int64(1 << 62)
		for e := iv.Start; e < iv.End; e++ {
			ref[e]++
			if ref[e] < wantMin {
				wantMin = ref[e]
			}
		}
		if gotMin != wantMin {
			t.Fatalf("step %d: Increment min = %d, want %d", step, gotMin, wantMin)
		}
		for e := int64(0); e < universe+61; e++ {
			if m.Count(e) != ref[e] {
				t.Fatalf("step %d: Count(%d) = %d, want %d", step, e, m.Count(e), ref[e])
			}
		}
	}
}
