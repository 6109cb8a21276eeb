package wfa

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/invariant"
)

// The backtrace of Section 4.5 in two halves, shared by both tiers: a
// backward walk that decodes one origin tag per step with BackStep, and
// ForwardPass, which replays the collected differences over the two reads
// and re-inserts the matches. The software Aligner reads its tags from its
// origin log (backtrace below); the CPU decoder of the accelerator's stream
// (internal/bt) reads them from the packed origin blocks.

// BackOp is one difference the backward walk collects.
type BackOp struct {
	Op align.Op // OpMismatch, OpInsert or OpDelete
	// FromM marks an op read from an M~ cell. In forward order an M~ cell is
	// where a maximal extension ran, so matches may follow exactly these ops.
	FromM bool
}

// BackStep decodes the origin tag of the walk's current cell, a cell of
// component comp, into the difference that produced it: tag is the 3-bit
// MTag* origin for M~ and the 1-bit GTag* origin for I~ and D~. It returns
// the op, the score it cost (ds), the diagonal step to the predecessor cell
// (dk) and the predecessor's component. ok is false when the tag names no
// predecessor; the initial cell M~(0,0) is never stepped from.
func BackStep(comp Component, tag uint8, p align.Penalties) (op BackOp, ds, dk int, next Component, ok bool) {
	oe, e := p.GapOpen+p.GapExtend, p.GapExtend
	switch comp {
	case CompM:
		switch tag {
		case MTagSub:
			return BackOp{align.OpMismatch, true}, p.Mismatch, 0, CompM, true
		case MTagIOpen:
			return BackOp{align.OpInsert, true}, oe, -1, CompM, true
		case MTagIExt:
			return BackOp{align.OpInsert, true}, e, -1, CompI, true
		case MTagDOpen:
			return BackOp{align.OpDelete, true}, oe, 1, CompM, true
		case MTagDExt:
			return BackOp{align.OpDelete, true}, e, 1, CompD, true
		}
	case CompI, CompD:
		op, dk := BackOp{Op: align.OpInsert}, -1
		if comp == CompD {
			op, dk = BackOp{Op: align.OpDelete}, 1
		}
		switch tag {
		case GTagOpen:
			return op, oe, dk, CompM, true
		case GTagExt:
			return op, e, dk, comp, true
		}
	}
	return BackOp{}, 0, 0, comp, false
}

// ForwardPass turns the reversed differences of a backward walk into the
// CIGAR aligning a against b: "the CPU traverses the two sequences and
// inserts all the necessary matches between the differences" (Section 4.5).
// Extension is maximal in both tiers, so the matches are re-derived from the
// bases alone: a run at the start (the extension of M~(0,0)) and one after
// every op read from an M~ cell. Inserting matches inside a gap run would
// split it and inflate the affine score. A mismatch over equal bases, an op
// past the end of a read, or a transcript that does not consume both reads
// exactly is an error.
func ForwardPass(a, b []byte, rev []BackOp) (align.CIGAR, error) {
	n, m := len(a), len(b)
	// Every base of a lands in an M, X or D column; only I adds columns.
	size := n
	for _, w := range rev {
		if w.Op == align.OpInsert {
			size++
		}
	}
	cigar := make(align.CIGAR, 0, size) //vet:allow hotalloc result buffer owned by the caller
	i, j := 0, 0
	extend := true
	for next := len(rev) - 1; ; next-- {
		if extend {
			for i < n && j < m && a[i] == b[j] {
				cigar = append(cigar, align.OpMatch)
				i++
				j++
			}
		}
		if next < 0 {
			break
		}
		w := rev[next]
		switch w.Op {
		case align.OpMismatch:
			if i >= n || j >= m || a[i] == b[j] {
				return nil, forwardError("mismatch over equal bases or past a read's end", i, j, n, m)
			}
			i++
			j++
		case align.OpInsert:
			if j >= m {
				return nil, forwardError("insertion past the end of b", i, j, n, m)
			}
			j++
		case align.OpDelete:
			if i >= n {
				return nil, forwardError("deletion past the end of a", i, j, n, m)
			}
			i++
		}
		cigar = append(cigar, w.Op)
		extend = w.FromM
	}
	if i != n || j != m {
		return nil, forwardError("transcript ends short of both reads' ends", i, j, n, m)
	}
	return cigar, nil
}

// forwardError builds ForwardPass's error. It runs on the reject path only.
//
//vet:coldpath
func forwardError(what string, i, j, n, m int) error {
	return fmt.Errorf("wfa: backtrace %s at (%d,%d) of (%d,%d)", what, i, j, n, m)
}

// backtrace reconstructs the optimal CIGAR from the origin log (Section
// 2.3's backtrace() operator): it walks the origin tags from the final cell
// back to M~(0,0), then ForwardPass re-inserts the matches.
func (al *Aligner) backtrace(finalScore int) align.CIGAR {
	// The reversed-op scratch is owned by the Aligner and truncate-reset per
	// pair, so the walk allocates only while the deepest alignment seen so
	// far is still growing the backing array.
	rev := al.btScratch[:0]
	s, k, comp := finalScore, al.m-al.n, CompM
	for s > 0 {
		tag := OriginTag(al.origin(comp, s, k), comp)
		op, ds, dk, next, ok := BackStep(comp, tag, al.pen)
		if !ok {
			invariant.Failf("wfa", "bad %v~ tag %d at (s=%d,k=%d)", comp, tag, s, k)
		}
		rev = append(rev, op)
		s, k, comp = s-ds, k+dk, next
	}
	al.btScratch = rev
	if s != 0 || k != 0 || comp != CompM {
		invariant.Failf("wfa", "backtrace ended at (s=%d,k=%d,%v~), want (0,0,M~)", s, k, comp)
	}
	cigar, err := ForwardPass(al.a, al.b, rev)
	if err != nil {
		invariant.Failf("wfa", "%v", err)
	}
	return cigar
}

// origin returns the logged origin of cell (s, k), which must be a valid
// cell of component comp: row s of the log covers score s's M~ range, and
// its validity flags say which components Step found valid there.
func (al *Aligner) origin(comp Component, s, k int) uint8 {
	var o uint8
	if mR := al.tracker.MRange(s); s < len(al.rowBase) && k >= mR.Lo && k <= mR.Hi {
		o = al.origins[al.rowBase[s]+k-mR.Lo]
	}
	if o&validBit(comp) == 0 {
		invariant.Failf("wfa", "backtrace lost %v~ cell (s=%d,k=%d)", comp, s, k)
	}
	return o
}
