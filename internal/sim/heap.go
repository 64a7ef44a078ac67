package sim

// The pending set is a 4-ary min-heap of events ordered by (time, seq).
// That order is total — seq is unique — so the execution order is a
// function of the operation sequence alone, never of the heap's shape.
// A 4-ary heap halves the depth of a binary one, and its four children
// sit next to each other in memory, so a sift-down touches fewer cache
// lines. Cancelled events stay in the heap until they reach the top (see
// Engine.head).

// before reports whether a runs before b.
func before(a, b *Event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// push adds ev to the heap.
func (e *Engine) push(ev *Event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !before(ev, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.queue = q
}

// pop removes the heap's top event, which the caller has already read as
// e.queue[0]. The heap must not be empty.
func (e *Engine) pop() {
	q := e.queue
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	e.queue = q
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if before(q[k], q[m]) {
				m = k
			}
		}
		if !before(q[m], last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
}
