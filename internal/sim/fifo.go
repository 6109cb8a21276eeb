// Package sim provides the clocked show-ahead FIFO the accelerator model's
// queues are built from, and the reusing Queue behind it and the memory
// system's transaction and beat queues.
//
// It follows a two-phase update discipline: writes performed during a cycle
// become visible only after Tick(), which removes ordering artifacts between
// components updated in the same simulated cycle.
package sim

import "repro/internal/invariant"

// FIFO is a show-ahead FIFO of fixed depth: the oldest unread word is
// available combinationally at Front and is consumed by Pop (the Vivado
// "show ahead" mode of Section 4.6). Pushes are staged and commit at Tick,
// modeling the one-cycle write-to-read latency of the hardware queue.
type FIFO[T any] struct {
	depth  int
	queue  Queue[T]
	staged []T
	// Statistics for bandwidth analysis.
	Pushes       int64
	Pops         int64
	StallFull    int64 // failed pushes
	MaxOccupancy int
}

// NewFIFO returns a FIFO holding up to depth words.
func NewFIFO[T any](depth int) *FIFO[T] {
	invariant.Checkf(depth > 0, "sim", "FIFO depth must be positive, got %d", depth)
	return &FIFO[T]{depth: depth}
}

// Depth returns the configured capacity.
func (f *FIFO[T]) Depth() int { return f.depth }

// Len returns the number of words visible to the reader this cycle.
func (f *FIFO[T]) Len() int { return f.queue.Len() }

// Occupancy returns visible plus staged words (what the writer sees as
// fullness).
func (f *FIFO[T]) Occupancy() int { return f.queue.Len() + len(f.staged) }

// Full reports whether a push this cycle would overflow.
func (f *FIFO[T]) Full() bool { return f.Occupancy() >= f.depth }

// Empty reports whether the reader sees no data this cycle.
func (f *FIFO[T]) Empty() bool { return f.queue.Len() == 0 }

// Push stages one word; it reports false (and counts a stall) when full.
func (f *FIFO[T]) Push(v T) bool {
	if f.Full() {
		f.StallFull++
		return false
	}
	f.staged = append(f.staged, v)
	f.Pushes++
	return true
}

// Front returns the oldest visible word without consuming it.
func (f *FIFO[T]) Front() (T, bool) {
	if f.queue.Len() == 0 {
		var zero T
		return zero, false
	}
	return f.queue.At(0), true
}

// Pop consumes the word exposed by Front.
func (f *FIFO[T]) Pop() (T, bool) {
	v, ok := f.queue.Pop()
	if ok {
		f.Pops++
	}
	return v, ok
}

// Tick commits staged pushes, making them visible to the reader next cycle.
func (f *FIFO[T]) Tick() {
	for _, v := range f.staged {
		f.queue.Push(v)
	}
	f.staged = f.staged[:0]
	if occ := f.Occupancy(); occ > f.MaxOccupancy {
		f.MaxOccupancy = occ
	}
}

// Reset discards all contents and statistics.
func (f *FIFO[T]) Reset() {
	f.Clear()
	f.Pushes, f.Pops, f.StallFull = 0, 0, 0
	f.MaxOccupancy = 0
}

// Clear discards all contents but keeps the statistics counters — the
// hardware flush used between jobs, where the perf counters are monotone
// over the machine's lifetime and only the data path is scrubbed.
func (f *FIFO[T]) Clear() {
	f.queue.Clear()
	f.staged = f.staged[:0]
}
