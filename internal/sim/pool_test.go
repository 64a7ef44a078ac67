package sim

import (
	"math/rand"
	"testing"
)

// TestEventPoolReuseKeepsFIFO drains and refills the engine repeatedly so
// recycled Event objects carry fresh sequence numbers: simultaneous events
// scheduled through recycled handles must still run in scheduling order.
func TestEventPoolReuseKeepsFIFO(t *testing.T) {
	e := New()
	for round := 0; round < 5; round++ {
		at := e.Now() + 1
		var order []int
		for i := 0; i < 20; i++ {
			i := i
			e.At(at, func() { order = append(order, i) })
		}
		// Cancel a few so cancelled events also cycle through the pool.
		e.At(at, func() {}).Cancel()
		e.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("round %d: recycled events broke FIFO: %v", round, order)
			}
		}
	}
}

// TestEventPoolIdenticalToFresh runs the same randomised workload on one
// engine reusing pooled events (sequential batches) and on fresh engines,
// asserting identical execution traces.
func TestEventPoolIdenticalToFresh(t *testing.T) {
	trace := func(e *Engine, seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		var out []float64
		for i := 0; i < 200; i++ {
			e.At(e.Now()+rng.Float64()*10, func() { out = append(out, e.Now()) })
			if rng.Intn(4) == 0 {
				e.At(e.Now()+rng.Float64()*10, func() { t.Error("cancelled event ran") }).Cancel()
			}
		}
		e.Run()
		return out
	}
	warm := New()
	trace(warm, 7) // populate the free list
	got := trace(warm, 42)
	base := trace(New(), 42)
	// The warm engine's clock is offset; compare inter-event gaps.
	if len(got) != len(base) {
		t.Fatalf("len %d vs %d", len(got), len(base))
	}
	for i := 1; i < len(got); i++ {
		dg := got[i] - got[i-1]
		db := base[i] - base[i-1]
		if diff := dg - db; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("step %d: gap %v vs %v", i, dg, db)
		}
	}
}

func TestPendingCountsCancellations(t *testing.T) {
	e := New()
	evs := make([]*Event, 10)
	for i := range evs {
		evs[i] = e.At(float64(i+1), func() {})
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	evs[3].Cancel()
	evs[7].Cancel()
	evs[7].Cancel() // double cancel must not double-decrement
	if e.Pending() != 8 {
		t.Fatalf("Pending = %d after two cancels, want 8", e.Pending())
	}
	e.Step()
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d after a step, want 7", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}
