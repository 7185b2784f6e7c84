// Package fifo provides the slice-backed first-in-first-out queue the
// executors keep their task pools in. The idiom it replaces —
// `q = q[1:]` to pop, `q = append(q, v)` to push — gives up one slot of
// capacity per pop, so a queue in steady state reallocates once per
// capacity's worth of traffic and keeps every popped element reachable
// from the abandoned prefix until it does.
package fifo

// Queue is a FIFO of T on one backing array: a head index moves over
// the popped prefix, and Push slides the live elements back down to
// index 0 once that prefix is at least as long as they are — each
// element is moved at most once per time it is queued, so pushes stay
// amortized O(1) and a queue whose length is bounded stops allocating
// at twice that bound. The zero value is an empty queue. Not safe for
// concurrent use.
type Queue[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && q.head >= q.Len() {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:]) // the vacated slots hold no reference
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// Front returns the oldest element without removing it; the queue must
// not be empty.
func (q *Queue[T]) Front() T { return q.items[q.head] }

// Pop removes and returns the oldest element; the queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	return v
}

// PopN removes the n oldest elements, n <= Len, and returns them
// oldest first as a view of the queue's own storage: the caller may
// read, reorder and overwrite it until the next Push, PushFront or
// Reset, and must not use it afterwards.
func (q *Queue[T]) PopN(n int) []T {
	out := q.items[q.head : q.head+n : q.head+n]
	q.head += n
	return out
}

// PushFront puts vs back ahead of the oldest element, vs[0] becoming
// the oldest — the undo of a PopN. vs may be (part of) that PopN's
// view.
func (q *Queue[T]) PushFront(vs []T) {
	if q.head < len(vs) {
		merged := make([]T, 0, len(vs)+q.Len())
		merged = append(merged, vs...)
		q.items, q.head = append(merged, q.items[q.head:]...), 0
		return
	}
	q.head -= len(vs)
	copy(q.items[q.head:], vs)
}

// Reset empties the queue, keeping its capacity.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}
