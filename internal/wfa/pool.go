package wfa

// Wavefront pooling for the steady-state alignment path. Before this existed
// every computed wavefront (three per score step) was a fresh heap object,
// which dominated the allocation profile of Aligner.Run and AlignBatch; the
// hotalloc analyzer now gates the hot path, so the window (Ring) recycles
// dead wavefronts into a per-Aligner free list instead. No global state and no
// sync.Pool: an Aligner is documented as not safe for concurrent use, and a
// plain slice keeps the recycling deterministic (the isolation analyzer
// forbids package-level mutable state on this path anyway).
//
// Bit-identity: a recycled wavefront is indistinguishable from a freshly
// allocated one — Off refilled with Invalid — so golden and chaos suites see
// identical results cycle for cycle.

// Pool is a LIFO free list of wavefronts whose backing arrays can be
// reused.
type Pool struct {
	free []*Wavefront
	// maxN is the high-water wavefront width. Widths widen monotonically
	// within a run, so a pool miss that grew to exactly the requested width
	// would miss again on the next, wider request; growing straight to the
	// high-water mark instead means each pooled wavefront reallocates at
	// most once after the first run, and the steady state is allocation-free.
	maxN int
}

// Acquire returns an all-invalid wavefront spanning [lo, hi], reusing pooled
// storage when a freed wavefront is available.
func (p *Pool) Acquire(lo, hi int) *Wavefront {
	n := hi - lo + 1
	if n < 0 {
		n = 0
	}
	if n > p.maxN {
		p.maxN = n
	}
	last := len(p.free) - 1
	if last < 0 {
		// Empty pool: allocate fresh, already at the high-water width.
		w := &Wavefront{ //vet:allow hotalloc pool growth, amortized across pairs
			Lo:  lo,
			Hi:  hi,
			Off: make([]int32, n, p.maxN), //vet:allow hotalloc pool growth, amortized across pairs
		}
		for i := range w.Off {
			w.Off[i] = Invalid
		}
		return w
	}
	w := p.free[last]
	p.free[last] = nil
	p.free = p.free[:last]
	w.Lo, w.Hi = lo, hi
	if cap(w.Off) < n {
		// Pool miss on width: grow once to the high-water width, then reuse
		// forever.
		w.Off = make([]int32, n, p.maxN) //vet:allow hotalloc pool growth, amortized across pairs
	} else {
		w.Off = w.Off[:n]
	}
	for i := range w.Off {
		w.Off[i] = Invalid
	}
	return w
}

// Release returns a dead wavefront to the free list. nil wavefronts are
// ignored so callers can release unconditionally. The append
// is amortized: acquire truncate-reslices the same backing array, so hotalloc
// treats free as sanctioned scratch.
func (p *Pool) Release(w *Wavefront) {
	if w == nil {
		return
	}
	p.free = append(p.free, w)
}
