package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		tm := tm
		e.At(tm, func() { order = append(order, tm) })
	}
	e.Run()
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events ran out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Errorf("ran %d events, want %d", len(order), len(times))
	}
	if e.Now() != 5 {
		t.Errorf("final time = %v, want 5", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New()
	ran := false
	ev := e.At(1, func() { ran = true })
	ev.Cancel()
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	ev.Cancel() // double-cancel is a no-op
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var hits []float64
	e.After(10, func() {
		hits = append(hits, e.Now())
		e.After(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("hits = %v, want [10 15]", hits)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	var ran []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		e.At(tm, func() { ran = append(ran, tm) })
	}
	e.RunUntil(3)
	if len(ran) != 3 {
		t.Errorf("RunUntil(3) ran %d events, want 3", len(ran))
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(ran) != 5 || e.Now() != 100 {
		t.Errorf("after RunUntil(100): ran=%d now=%v", len(ran), e.Now())
	}
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	e := New()
	ev := e.At(1, func() { t.Error("cancelled event ran") })
	ev.Cancel()
	ok := false
	e.At(2, func() { ok = true })
	e.RunUntil(5)
	if !ok {
		t.Error("live event after cancelled head did not run")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := New()
		rng := rand.New(rand.NewSource(seed))
		var out []float64
		var tick func()
		tick = func() {
			out = append(out, e.Now())
			if len(out) < 100 {
				e.After(rng.Float64()*10, tick)
			}
		}
		e.After(0, tick)
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEventQueueMatchesReferenceModel drives the engine and a trivially
// correct reference model (a list popped by minimal (time, seq)) through
// the same randomised schedule/cancel/step mix — duplicate timestamps,
// far-future fault-style timers, both callback forms — and requires the
// execution order, live count, and drain behaviour to agree exactly.
// A second phase grows the pending set past 1,000 events in large
// same-time cohorts and drains it while cancelling at the head, so sifts
// cross several heap levels. This is the ordering + cancellation +
// recycle contract of the event queue.
func TestEventQueueMatchesReferenceModel(t *testing.T) {
	type ref struct {
		time float64
		seq  int
		id   int
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var model []ref // pending non-cancelled events, unordered
		var got, want []int
		handles := map[int]*Event{}
		byID := func(a any) { got = append(got, a.(int)) }
		seq, nextID := 0, 0
		lastT := 0.0
		var add func(t0 float64)
		schedule := func() {
			d := rng.Float64() * 10
			if rng.Intn(10) == 0 {
				d = 1e5 + rng.Float64()*1e6 // fault-style far-future timer
			}
			t0 := e.Now() + d
			if rng.Intn(5) == 0 && lastT >= e.Now() {
				t0 = lastT // force simultaneous cohorts
			}
			lastT = t0
			add(t0)
		}
		add = func(t0 float64) {
			id := nextID
			nextID++
			if rng.Intn(2) == 0 {
				id := id
				handles[id] = e.At(t0, func() { got = append(got, id) })
			} else {
				handles[id] = e.AtCall(t0, byID, id)
			}
			model = append(model, ref{t0, seq, id})
			seq++
		}
		popMin := func() ref {
			best := 0
			for i, r := range model {
				if r.time < model[best].time || (r.time == model[best].time && r.seq < model[best].seq) {
					best = i
				}
			}
			r := model[best]
			model = append(model[:best], model[best+1:]...)
			return r
		}
		for i := 0; i < 30; i++ {
			schedule()
		}
		ops := 300 + rng.Intn(300)
		for i := 0; i < ops; i++ {
			switch op := rng.Intn(8); {
			case op < 2 && len(model) > 0: // cancel a random pending event
				k := rng.Intn(len(model))
				handles[model[k].id].Cancel()
				delete(handles, model[k].id)
				model = append(model[:k], model[k+1:]...)
			case op < 6:
				schedule()
			default: // step
				stepped := e.Step()
				if stepped != (len(model) > 0) {
					return false
				}
				if stepped {
					r := popMin()
					delete(handles, r.id)
					want = append(want, r.id)
					if e.Now() != r.time {
						return false
					}
				}
			}
			if e.Pending() != len(model) {
				return false
			}
		}
		// Deep phase: cohorts of up to 64 simultaneous events until more
		// than 1,000 are pending, then steps down to 100 that cancel the
		// head a third of the time and keep scheduling at the current
		// instant.
		for len(model) <= 1000 {
			t0 := e.Now() + float64(rng.Intn(20))
			for k := rng.Intn(64); k >= 0; k-- {
				add(t0)
			}
		}
		for len(model) > 100 {
			switch op := rng.Intn(6); {
			case op < 2: // cancel the head
				r := popMin()
				handles[r.id].Cancel()
				delete(handles, r.id)
			case op == 2:
				add(e.Now())
			default:
				if !e.Step() {
					return false
				}
				r := popMin()
				delete(handles, r.id)
				want = append(want, r.id)
				if e.Now() != r.time {
					return false
				}
			}
			if e.Pending() != len(model) {
				return false
			}
		}
		e.Run()
		for len(model) > 0 {
			want = append(want, popMin().id)
		}
		if e.Pending() != 0 || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSteps(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(float64(i), func() {})
	}
	e.Run()
	if e.Steps() != 5 {
		t.Errorf("Steps = %d, want 5", e.Steps())
	}
}

// BenchmarkEngineHotLoop exercises the engine with a steady window of 32
// pending events, each completion scheduling a successor. One op is one
// executed event. It is synthetic: it never shows the cost of the real
// schedule mix, which internal/lab's BenchmarkSweepCell prices.
func BenchmarkEngineHotLoop(b *testing.B) {
	b.ReportAllocs()
	e := New()
	rng := rand.New(rand.NewSource(1))
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			e.After(rng.Float64(), tick)
		}
	}
	for i := 0; i < 32 && remaining > 0; i++ {
		remaining--
		e.After(rng.Float64(), tick)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkEventQueue prices the event queue with 256 pending events under
// three insertion patterns: monotone (cohorts of 256 simultaneous
// events), uniform-random (mixed completions), and uniform-random with 32
// far-future fault timers parked in the queue. All must stay
// allocation-free. The heap is slower here than the calendar queue it
// replaced (O(log n) against O(1) amortised with n = 256), but the paper's
// scenarios keep about 43 events pending, where the calendar rebuilt
// itself once per 48 extractions and the heap wins end to end. These
// benchmarks are not in the bench gate.
func BenchmarkEventQueue(b *testing.B) {
	run := func(b *testing.B, far int, next func(rng *rand.Rand) float64) {
		b.ReportAllocs()
		e := New()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < far; i++ {
			e.After(1e9+float64(i)*1e6, func() {})
		}
		remaining := b.N
		var tick func()
		tick = func() {
			if remaining > 0 {
				remaining--
				e.After(next(rng), tick)
			}
		}
		for i := 0; i < 256 && remaining > 0; i++ {
			remaining--
			e.After(next(rng), tick)
		}
		b.ResetTimer()
		e.Run()
	}
	b.Run("monotone", func(b *testing.B) {
		run(b, 0, func(*rand.Rand) float64 { return 1 })
	})
	b.Run("uniform", func(b *testing.B) {
		run(b, 0, func(rng *rand.Rand) float64 { return rng.Float64() * 100 })
	})
	b.Run("farfuture", func(b *testing.B) {
		run(b, 32, func(rng *rand.Rand) float64 { return rng.Float64() * 100 })
	})
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	b.ResetTimer()
	e.Run()
}
