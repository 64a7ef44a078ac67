package sched

import "physched/internal/job"

// ringDeque is a growable double-ended queue over a power-of-two ring
// buffer. PushBack, PushFront and PopFront are amortised O(1) — the old
// slice-based deque copied the whole queue on every PushFront — and every
// vacated slot is zeroed so popped elements are not kept reachable through
// the backing array.
type ringDeque[T any] struct {
	buf  []T
	head int // index of the first element
	n    int // number of elements
}

func (d *ringDeque[T]) Empty() bool { return d.n == 0 }
func (d *ringDeque[T]) Len() int    { return d.n }

// at maps a logical position (0 = front) to a buffer index.
func (d *ringDeque[T]) at(i int) int { return (d.head + i) & (len(d.buf) - 1) }

// grow doubles the buffer (minimum 8) and realigns head to zero.
func (d *ringDeque[T]) grow() {
	capacity := 8
	if len(d.buf) > 0 {
		capacity = 2 * len(d.buf)
	}
	buf := make([]T, capacity)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[d.at(i)]
	}
	d.buf = buf
	d.head = 0
}

func (d *ringDeque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[d.at(d.n)] = v
	d.n++
}

func (d *ringDeque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

func (d *ringDeque[T]) PopFront() T {
	if d.n == 0 {
		panic("sched: PopFront on empty deque")
	}
	v := d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v
}

// Peek returns the i-th element without removing it.
func (d *ringDeque[T]) Peek(i int) T {
	if i < 0 || i >= d.n {
		panic("sched: Peek index out of range")
	}
	return d.buf[d.at(i)]
}

// Remove deletes and returns the i-th element, shifting the shorter side.
func (d *ringDeque[T]) Remove(i int) T {
	if i < 0 || i >= d.n {
		panic("sched: Remove index out of range")
	}
	v := d.buf[d.at(i)]
	var zero T
	if i < d.n/2 {
		for k := i; k > 0; k-- {
			d.buf[d.at(k)] = d.buf[d.at(k-1)]
		}
		d.buf[d.head] = zero
		d.head = (d.head + 1) & (len(d.buf) - 1)
	} else {
		for k := i; k < d.n-1; k++ {
			d.buf[d.at(k)] = d.buf[d.at(k+1)]
		}
		d.buf[d.at(d.n-1)] = zero
	}
	d.n--
	return v
}

// jobFIFO is a FIFO queue of jobs.
type jobFIFO struct{ ringDeque[*job.Job] }

func (f *jobFIFO) Push(j *job.Job) { f.PushBack(j) }
func (f *jobFIFO) Pop() *job.Job   { return f.PopFront() }

// subjobDeque supports FIFO plus front re-insertion ("placed back at the
// first position of the queue where it came from", Table 3). It keeps a
// running sum of queued events so totalEvents — probed for every node on
// every steal — is O(1). The sum relies on queued subjobs being immutable:
// only a running subjob's range ever changes (SplitRunning/Preempt), so a
// subjob's Events() is fixed between enqueue and dequeue.
type subjobDeque struct {
	ringDeque[*job.Subjob]
	events int64
}

func (d *subjobDeque) PushBack(s *job.Subjob) {
	d.events += s.Events()
	d.ringDeque.PushBack(s)
}

func (d *subjobDeque) PushFront(s *job.Subjob) {
	d.events += s.Events()
	d.ringDeque.PushFront(s)
}

func (d *subjobDeque) PopFront() *job.Subjob {
	s := d.ringDeque.PopFront()
	d.events -= s.Events()
	return s
}

func (d *subjobDeque) Remove(i int) *job.Subjob {
	s := d.ringDeque.Remove(i)
	d.events -= s.Events()
	return s
}

// totalEvents returns the events of all queued subjobs.
func (d *subjobDeque) totalEvents() int64 { return d.events }
