package wfa

import (
	"repro/internal/align"
	"repro/internal/invariant"
)

// backtrace reconstructs the optimal CIGAR from the retained wavefronts,
// walking the per-cell origin tags from the final cell back to M~(0,0)
// (Section 2.3's backtrace() operator). Matches are re-inserted from the
// difference between each M~ cell's post-extend offset and its computed
// (pre-extend) value.
func (al *Aligner) backtrace(finalScore int) align.CIGAR {
	x := al.pen.Mismatch
	oe := al.pen.GapOpen + al.pen.GapExtend
	e := al.pen.GapExtend

	// The reversed-op scratch is owned by the Aligner and truncate-reset per
	// pair, so backtrace allocates only while the deepest alignment seen so
	// far is still growing the backing array.
	rev := al.btScratch[:0]
	s := finalScore
	k := al.m - al.n
	comp := CompM
	cur := int32(al.m) // current offset (j) along the walk

	for {
		switch comp {
		case CompM:
			mwf := al.store.Get(CompM, s)
			if mwf == nil || !mwf.Valid(k) {
				invariant.Failf("wfa", "backtrace lost M~ cell (s=%d,k=%d)", s, k)
			}
			if got := mwf.At(k); got != cur {
				invariant.Failf("wfa", "backtrace offset mismatch at M~(s=%d,k=%d): walk=%d stored=%d", s, k, cur, got)
			}
			tag := mwf.TagAt(k)
			// Pre-extend value of this cell, from its origin.
			var pre int32
			switch tag {
			case MTagNone: // the initial cell M~(0,0)
				pre = 0
			case MTagSub:
				pre = al.store.Get(CompM, s-x).At(k) + 1
			case MTagIOpen, MTagIExt:
				pre = al.store.Get(CompI, s).At(k)
			case MTagDOpen, MTagDExt:
				pre = al.store.Get(CompD, s).At(k)
			default:
				invariant.Failf("wfa", "bad M~ tag %d at (s=%d,k=%d)", tag, s, k)
			}
			for cur > pre {
				rev = append(rev, align.OpMatch)
				cur--
			}
			switch tag {
			case MTagNone:
				if s != 0 || k != 0 || cur != 0 {
					invariant.Failf("wfa", "backtrace ended at (s=%d,k=%d,off=%d)", s, k, cur)
				}
				al.btScratch = rev
				return reverseOps(rev)
			case MTagSub:
				rev = append(rev, align.OpMismatch)
				cur--
				s -= x
			case MTagIOpen:
				rev = append(rev, align.OpInsert)
				cur--
				k--
				s -= oe
			case MTagIExt:
				rev = append(rev, align.OpInsert)
				cur--
				k--
				s -= e
				comp = CompI
			case MTagDOpen:
				rev = append(rev, align.OpDelete)
				k++
				s -= oe
			case MTagDExt:
				rev = append(rev, align.OpDelete)
				k++
				s -= e
				comp = CompD
			}

		case CompI:
			iwf := al.store.Get(CompI, s)
			if iwf == nil || !iwf.Valid(k) {
				invariant.Failf("wfa", "backtrace lost I~ cell (s=%d,k=%d)", s, k)
			}
			if got := iwf.At(k); got != cur {
				invariant.Failf("wfa", "backtrace offset mismatch at I~(s=%d,k=%d): walk=%d stored=%d", s, k, cur, got)
			}
			rev = append(rev, align.OpInsert)
			cur--
			k--
			if iwf.TagAt(k+1) == GTagOpen {
				s -= oe
				comp = CompM
			} else {
				s -= e
			}

		case CompD:
			dwf := al.store.Get(CompD, s)
			if dwf == nil || !dwf.Valid(k) {
				invariant.Failf("wfa", "backtrace lost D~ cell (s=%d,k=%d)", s, k)
			}
			if got := dwf.At(k); got != cur {
				invariant.Failf("wfa", "backtrace offset mismatch at D~(s=%d,k=%d): walk=%d stored=%d", s, k, cur, got)
			}
			rev = append(rev, align.OpDelete)
			k++
			if dwf.TagAt(k-1) == GTagOpen {
				s -= oe
				comp = CompM
			} else {
				s -= e
			}
		}
	}
}

// reverseOps reverses the accumulated backtrace into forward CIGAR order.
// The result escapes to the caller as part of align.Result, so it cannot be
// pooled.
func reverseOps(rev []align.Op) align.CIGAR {
	out := make(align.CIGAR, len(rev)) //vet:allow hotalloc result buffer owned by the caller
	for i, op := range rev {
		out[len(rev)-1-i] = op
	}
	return out
}
