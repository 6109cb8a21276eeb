package wfa

import (
	"repro/internal/align"
	"repro/internal/invariant"
)

// Range is an inclusive diagonal interval [Lo, Hi] of one wavefront vector.
type Range struct {
	Lo, Hi int
}

// Empty reports whether the range spans no diagonals.
func (r Range) Empty() bool { return r.Lo > r.Hi }

// Len returns the number of diagonals (0 when empty).
func (r Range) Len() int {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo + 1
}

var emptyRange = Range{Lo: 1, Hi: 0}

// RangeTracker reproduces the data-independent evolution of the wavefront
// validity ranges (Section 4.3.1: "The corresponding score of a column
// identifies the valid cells of that column"). The ranges depend only on the
// penalties, the sequence lengths and k_max — never on the sequence data —
// which is what lets the CPU backtrace code re-derive the layout of the
// origin stream without a side channel.
//
// The same tracker drives the software Aligner's score loop, the hardware
// Aligner's frame-column iteration and the CPU decoder's stream indexing, so
// all three agree by construction on which diagonals score s covers.
type RangeTracker struct {
	pen        align.Penalties
	n, m, kmax int

	mR, iR, dR []Range // per-score ranges, index = score
}

// NewRangeTracker starts a tracker for a pair with |a| = n, |b| = m under
// the given penalties and diagonal clamp (kmax <= 0 means unclamped).
func NewRangeTracker(p align.Penalties, n, m, kmax int) *RangeTracker {
	t := &RangeTracker{}
	t.Reset(p, n, m, kmax)
	return t
}

// Reset re-arms the tracker for a new pair, truncate-resetting the recorded
// ranges so one tracker's capacity amortizes across a whole job stream.
func (t *RangeTracker) Reset(p align.Penalties, n, m, kmax int) {
	t.pen, t.n, t.m, t.kmax = p, n, m, kmax
	t.mR = t.mR[:0]
	t.iR = t.iR[:0]
	t.dR = t.dR[:0]
	t.mR = append(t.mR, Range{0, 0}) // M~(0,0)
	t.iR = append(t.iR, emptyRange)
	t.dR = append(t.dR, emptyRange)
}

// clamp applies the structural diagonal bounds (matrix corners and k_max).
func (t *RangeTracker) clamp(r Range) Range {
	if r.Lo < -t.n {
		r.Lo = -t.n
	}
	if r.Hi > t.m {
		r.Hi = t.m
	}
	if t.kmax > 0 {
		if r.Lo < -t.kmax {
			r.Lo = -t.kmax
		}
		if r.Hi > t.kmax {
			r.Hi = t.kmax
		}
	}
	if r.Empty() {
		return emptyRange
	}
	return r
}

func unionR(a, b Range) Range {
	switch {
	case a.Empty() && b.Empty():
		return emptyRange
	case a.Empty():
		return b
	case b.Empty():
		return a
	}
	if b.Lo < a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > a.Hi {
		a.Hi = b.Hi
	}
	return a
}

func shiftR(r Range, d int) Range {
	if r.Empty() {
		return r
	}
	return Range{r.Lo + d, r.Hi + d}
}

// at returns a recorded range, empty for negative or not-yet-computed
// scores.
func at(rs []Range, s int) Range {
	if s < 0 || s >= len(rs) {
		return emptyRange
	}
	return rs[s]
}

// Extend computes and records the ranges for score s (which must be
// len(recorded) — scores are visited in order) and returns the I~, D~ and M~
// ranges.
func (t *RangeTracker) Extend(s int) (iR, dR, mR Range) {
	if s != len(t.mR) {
		invariant.Failf("wfa", "RangeTracker scores must be visited in order: got %d, want %d", s, len(t.mR))
	}
	x := t.pen.Mismatch
	oe := t.pen.GapOpen + t.pen.GapExtend
	e := t.pen.GapExtend

	srcMoe := at(t.mR, s-oe)
	srcIe := at(t.iR, s-e)
	srcDe := at(t.dR, s-e)
	srcMx := at(t.mR, s-x)

	iR = t.clamp(shiftR(unionR(srcMoe, srcIe), +1))
	dR = t.clamp(shiftR(unionR(srcMoe, srcDe), -1))
	mR = t.clamp(unionR(unionR(srcMx, iR), dR))

	t.iR = append(t.iR, iR)
	t.dR = append(t.dR, dR)
	t.mR = append(t.mR, mR)
	return iR, dR, mR
}

// MRange returns the recorded M~ range at score s.
func (t *RangeTracker) MRange(s int) Range { return at(t.mR, s) }
