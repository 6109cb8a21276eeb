package sim

// Queue is an unbounded first-in first-out queue over one retained backing
// array. Pop advances a head index instead of re-slicing the head away, and
// Push moves the live words down to index zero when the array is full and at
// least half of it is consumed head, so a queue whose occupancy stays bounded
// stops allocating once its array has grown to fit. Clear keeps the array.
// The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T // buf[head:] are the queued words, oldest first
	head int
}

// Len returns the number of queued words.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// At returns the i-th oldest queued word; At(0) is the next to pop.
func (q *Queue[T]) At(i int) T { return q.buf[q.head+i] }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest word; it reports false when the queue
// is empty.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	if q.head == len(q.buf) {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v, true
}

// Clear discards every queued word and keeps the backing array.
func (q *Queue[T]) Clear() {
	clear(q.buf[q.head:])
	q.buf = q.buf[:0]
	q.head = 0
}
