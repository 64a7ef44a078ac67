// Package sim is a minimal deterministic discrete-event simulation engine:
// a clock, a time-ordered event queue with stable FIFO ordering among
// simultaneous events, and cancellable timers. It is single-goroutine by
// design — the paper's simulator models days to weeks of cluster operation,
// which only stays fast if the hot loop is allocation-light and lock-free.
//
// The engine recycles Event objects through a free list, so steady-state
// stepping performs no allocations. The price is a narrow handle contract:
// an *Event returned by At or After is valid until its callback has run
// (or until the engine drops it after a cancellation); using a handle past
// that point observes an unrelated, recycled event. All in-tree callers
// clear their handles when the callback fires.
//
// The pending set is a 4-ary min-heap ordered by (time, seq) — see
// heap.go — so insert and pop cost O(log n) in the number of pending
// events, which stays in the tens on the paper's scenarios. Cancellation
// is lazy: a cancelled event leaves the heap when it reaches the top.
package sim

import "fmt"

// Engine drives a simulation. Create one with New, schedule callbacks with
// At or After, and call Run or RunUntil.
type Engine struct {
	now   float64
	seq   uint64
	steps uint64
	live  int    // scheduled, non-cancelled events (O(1) Pending)
	free  *Event // free list of recycled events

	// queue is the heap of pending events, ordered by (time, seq). It
	// also holds cancelled events that have not yet reached its top.
	queue []*Event
}

// Event is a handle to a scheduled callback; it can be cancelled any time
// before its callback runs.
type Event struct {
	time      float64
	seq       uint64
	fn        func()
	fnArg     func(any) // alternative arg-taking callback (AtCall)
	arg       any
	eng       *Engine
	next      *Event // free-list link
	cancelled bool
	queued    bool // in the heap; false once executed or collected
}

// Cancel prevents the event's callback from running. Cancelling an already
// cancelled event is a no-op. Cancelling after the callback has run is
// outside the handle contract (see the package comment).
func (e *Event) Cancel() {
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	if e.queued {
		e.eng.live--
	}
}

// New returns an engine whose clock starts at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it always indicates a logic error in a policy.
func (e *Engine) At(t float64, fn func()) *Event {
	ev := e.acquire(t)
	ev.fn = fn
	e.push(ev)
	return ev
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Event { return e.At(e.now+d, fn) }

// AtCall schedules fn(arg) to run at absolute simulated time t. Unlike At
// with a closure, binding the argument through the event itself allocates
// nothing when fn is reused and arg is a pointer — the form per-job timers
// (fairness aging, fault repair) use on the hot path.
func (e *Engine) AtCall(t float64, fn func(any), arg any) *Event {
	ev := e.acquire(t)
	ev.fnArg = fn
	ev.arg = arg
	e.push(ev)
	return ev
}

// AfterCall schedules fn(arg) to run d seconds from now.
func (e *Engine) AfterCall(d float64, fn func(any), arg any) *Event {
	return e.AtCall(e.now+d, fn, arg)
}

// acquire takes a recycled (or new) Event and stamps it with time t and
// the next sequence number.
//
//physched:hotpath
func (e *Engine) acquire(t float64) *Event {
	if t < e.now {
		//physched:allocok panic path: scheduling in the past is a caller bug, never steady state
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
		ev.cancelled = false
	} else {
		ev = &Event{eng: e} //physched:allocok pool miss: warm-up allocation, recycled for the rest of the run
	}
	ev.time = t
	ev.seq = e.seq
	ev.queued = true
	e.seq++
	e.live++
	return ev
}

// release returns a consumed event to the free list. The callback
// references are dropped immediately so closures are not retained; the
// cancelled flag is left untouched until reuse, keeping Cancelled()
// meaningful on handles that were cancelled and later collected.
//
//physched:hotpath
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.fnArg = nil
	ev.arg = nil
	ev.queued = false
	ev.next = e.free
	e.free = ev
}

// Pending returns the number of scheduled (non-cancelled) events, in O(1).
func (e *Engine) Pending() int { return e.live }

// head returns the next event in (time, seq) order without consuming it,
// releasing cancelled events it skips over; nil when nothing is pending.
//
//physched:hotpath
func (e *Engine) head() *Event {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if !ev.cancelled {
			return ev
		}
		// Cancel already removed it from the live count.
		e.pop()
		e.release(ev)
	}
	return nil
}

// Step executes the next event. It reports false when the queue is empty.
//
//physched:hotpath
func (e *Engine) Step() bool {
	ev := e.head()
	if ev == nil {
		return false
	}
	e.pop()
	e.now = ev.time
	e.steps++
	e.live--
	fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
	e.release(ev)
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t float64) {
	for {
		ev := e.head()
		if ev == nil || ev.time > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
