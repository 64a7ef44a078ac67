package lab

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// ErrPoolClosed is returned by Pool.Run once the pool has been closed.
var ErrPoolClosed = errors.New("lab: pool is closed")

// Pool executes index-addressed tasks over a bounded set of workers. One
// long-lived Pool may serve many concurrent Run calls — every grid a
// server executes, for example — and its worker bound then caps the total
// number of simulations in flight process-wide. Tasks from concurrent Run
// calls are interleaved fairly: workers pick round-robin across the
// active submissions, so a large grid cannot starve a small one.
//
// Tasks receive their index and write their own results; the pool
// guarantees nothing about execution order, which is why every lab task
// must be a pure function of its index (see the package comment).
type Pool struct {
	workers int
	wg      sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	subs   []*submission // submissions with tasks still to hand out
	next   int           // round-robin cursor into subs
	closed bool
	busy   int        // workers currently inside a task
	done   uint64     // tasks completed over the pool's lifetime
	hooks  *PoolHooks // nil unless SetHooks installed observation hooks
}

// PoolHooks observe per-task timing on a pool: how long each task sat
// queued before a worker picked it up, and how long it ran. The clock is
// injected — the pool itself never reads wall time, keeping internal/lab
// inside the determinism boundary (the walltime analyzer enforces this;
// a service installs hooks fed from its own audited clock seam). All
// three fields must be set; hook calls happen outside the pool mutex on
// the worker's hot path and must not block or allocate.
type PoolHooks struct {
	// Now returns the current time in nanoseconds (any fixed epoch).
	Now func() int64
	// Wait receives each task's queue wait: pickup time minus submit time.
	Wait func(ns int64)
	// Run receives each task's execution duration.
	Run func(ns int64)
}

// SetHooks installs (or, with nil, removes) timing hooks. Tasks already
// queued were not timestamped at submission, so their queue wait reads
// as pickup minus the hook installation instant at worst — install hooks
// before submitting work when exact waits matter.
func (p *Pool) SetHooks(h *PoolHooks) {
	if h != nil && (h.Now == nil || h.Wait == nil || h.Run == nil) {
		panic("lab: PoolHooks requires Now, Wait and Run")
	}
	p.mu.Lock()
	p.hooks = h
	p.mu.Unlock()
}

// PoolStats is a point-in-time snapshot of a pool's load — the counter
// layer a service /metrics endpoint reads. Busy/Workers is the
// utilization gauge; TasksDone is monotonic, so cells-per-second is a
// rate over it.
type PoolStats struct {
	Workers   int    // worker bound
	Busy      int    // workers currently executing a task
	TasksDone uint64 // tasks completed since NewPool
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Workers: p.workers, Busy: p.busy, TasksDone: p.done}
}

// submission is one Run call's task set. Guarded by the pool's mutex.
type submission struct {
	task       func(int)
	n          int   // total tasks
	nextIdx    int   // next index to hand out
	inflight   int   // tasks currently running
	enqueuedNs int64 // submit timestamp from hooks.Now; 0 when hooks were off
	cancelled  bool
	done       chan struct{} // closed when no tasks remain pending or running
	doneClosed bool
}

// NewPool starts a pool of workers goroutines; ≤0 means
// runtime.GOMAXPROCS(0). Close releases them.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		// Workers exit when Close sets the closed flag and broadcasts; Close joins them via wg.Wait.
		go p.worker()
	}
	return p
}

// Workers reports the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// Run executes task(0..n-1) on the pool and blocks until all started
// tasks finished. When ctx is cancelled, tasks not yet started are
// skipped — a simulation run is not interruptible midway — and ctx.Err()
// is returned once in-flight tasks complete; completed indices keep
// their results. Concurrent Run calls share the pool's worker bound.
func (p *Pool) Run(ctx context.Context, n int, task func(int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	sub := &submission{task: task, n: n, done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	if p.hooks != nil {
		sub.enqueuedNs = p.hooks.Now()
	}
	p.subs = append(p.subs, sub)
	p.cond.Broadcast()
	p.mu.Unlock()

	select {
	case <-sub.done:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		sub.cancelled = true
		p.remove(sub)
		p.finishIfDone(sub)
		p.mu.Unlock()
		<-sub.done // started tasks run to completion
		return ctx.Err()
	}
}

// Close marks the pool closed and waits for the workers to exit. Tasks
// already submitted are drained first; Run calls after Close fail with
// ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		sub, i := p.take()
		for sub == nil {
			if p.closed {
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
			sub, i = p.take()
		}
		p.busy++
		hooks, enq := p.hooks, sub.enqueuedNs
		p.mu.Unlock()
		if hooks != nil && enq != 0 {
			runHooked(sub.task, i, enq, hooks)
		} else {
			sub.task(i)
		}
		p.mu.Lock()
		p.busy--
		p.done++
		sub.inflight--
		p.finishIfDone(sub)
	}
}

// runHooked runs one task bracketed by timing observations. It sits on
// the worker hot path — one call per simulated cell — so it must not
// allocate: the hook closures are shared, not built per task.
func runHooked(task func(int), i int, enqueuedNs int64, h *PoolHooks) {
	start := h.Now()
	h.Wait(start - enqueuedNs)
	task(i)
	h.Run(h.Now() - start)
}

// take pops the next task, round-robin across active submissions, and
// drops exhausted submissions from the rotation.
//
// The caller holds p.mu: take mutates the shared rotation state.
func (p *Pool) take() (*submission, int) {
	for len(p.subs) > 0 {
		if p.next >= len(p.subs) {
			p.next = 0
		}
		sub := p.subs[p.next]
		if sub.cancelled || sub.nextIdx >= sub.n {
			p.subs = append(p.subs[:p.next], p.subs[p.next+1:]...)
			continue
		}
		i := sub.nextIdx
		sub.nextIdx++
		sub.inflight++
		if sub.nextIdx >= sub.n {
			p.subs = append(p.subs[:p.next], p.subs[p.next+1:]...)
		} else {
			p.next++
		}
		return sub, i
	}
	return nil, 0
}

// remove takes sub out of the rotation.
//
// The caller holds p.mu: remove rewrites the shared subs slice.
func (p *Pool) remove(sub *submission) {
	for i, s := range p.subs {
		if s == sub {
			p.subs = append(p.subs[:i], p.subs[i+1:]...)
			return
		}
	}
}

// finishIfDone closes sub.done when no tasks remain pending or running.
//
// The caller holds p.mu: the doneClosed/inflight check must be atomic with the rotation.
func (p *Pool) finishIfDone(sub *submission) {
	if sub.inflight == 0 && (sub.cancelled || sub.nextIdx >= sub.n) && !sub.doneClosed {
		sub.doneClosed = true
		close(sub.done)
	}
}

// runSerial executes task(0..n-1) inline with cancellation between tasks
// — the worker-free path grid execution takes for serial runs.
func runSerial(ctx context.Context, n int, task func(int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		task(i)
	}
	return nil
}
