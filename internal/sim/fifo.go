// Package sim provides the clocked hardware primitives the accelerator model
// is built from: show-ahead FIFOs, dual-port RAM models, and the two ASIC
// memory wrappers of Section 4.6 (a show-ahead FIFO implemented over a
// register file, and a single-port memory macro presented as a dual-port
// RAM).
//
// All primitives follow a two-phase update discipline: writes performed
// during a cycle become visible only after Tick(), which removes ordering
// artifacts between components updated in the same simulated cycle.
package sim

import "repro/internal/invariant"

// FIFO is a show-ahead FIFO of fixed depth: the oldest unread word is
// available combinationally at Front and is consumed by Pop (the Vivado
// "show ahead" mode of Section 4.6). Pushes are staged and commit at Tick,
// modeling the one-cycle write-to-read latency of the hardware queue.
type FIFO[T any] struct {
	depth  int
	queue  []T
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
func (f *FIFO[T]) Len() int { return len(f.queue) }

// Occupancy returns visible plus staged words (what the writer sees as
// fullness).
func (f *FIFO[T]) Occupancy() int { return len(f.queue) + len(f.staged) }

// Full reports whether a push this cycle would overflow.
func (f *FIFO[T]) Full() bool { return f.Occupancy() >= f.depth }

// Empty reports whether the reader sees no data this cycle.
func (f *FIFO[T]) Empty() bool { return len(f.queue) == 0 }

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
	var zero T
	if len(f.queue) == 0 {
		return zero, false
	}
	return f.queue[0], true
}

// Pop consumes the word exposed by Front.
func (f *FIFO[T]) Pop() (T, bool) {
	var zero T
	if len(f.queue) == 0 {
		return zero, false
	}
	v := f.queue[0]
	f.queue = f.queue[1:]
	f.Pops++
	return v, true
}

// Tick commits staged pushes, making them visible to the reader next cycle.
func (f *FIFO[T]) Tick() {
	if len(f.staged) > 0 {
		f.queue = append(f.queue, f.staged...)
		f.staged = f.staged[:0]
	}
	if occ := f.Occupancy(); occ > f.MaxOccupancy {
		f.MaxOccupancy = occ
	}
}

// Reset discards all contents and statistics.
func (f *FIFO[T]) Reset() {
	f.queue = f.queue[:0]
	f.staged = f.staged[:0]
	f.Pushes, f.Pops, f.StallFull = 0, 0, 0
	f.MaxOccupancy = 0
}

// Clear discards all contents but keeps the statistics counters — the
// hardware flush used between jobs, where the perf counters are monotone
// over the machine's lifetime and only the data path is scrubbed.
func (f *FIFO[T]) Clear() {
	f.queue = f.queue[:0]
	f.staged = f.staged[:0]
}
