package wfa

import (
	"math/bits"

	"repro/internal/align"
	"repro/internal/seqio"
)

// Step is the Equation 3 recurrence for one score s (Figure 2; the Compute
// sub-module of Section 4.3, Figure 7): it computes I~(s), D~(s) and M~(s)
// over the ranges iR, dR and mR from the four dependency wavefronts
// M~(s-x), M~(s-o-e), I~(s-e) and D~(s-e), acquiring the results from pool
// and trimming every cell that steps outside the DP grid of a pair with
// |a| = n, |b| = m. Both the software Aligner and the simulated hardware
// Aligner call it, so their cells, origins and backtrace streams agree by
// construction. Ties break in one fixed order: gap-open beats gap-extend,
// then substitution beats insertion beats deletion. A wavefront whose range
// is empty comes back nil, without touching the pool.
//
// Step writes the origins of score s into row, which the caller owns: the
// cell of diagonal k at row[k-mR.Lo], which needs mR ⊇ iR ∪ dR, as the
// RangeTracker guarantees. Bits [4:0] hold PackOrigin's layout for the
// components that are valid at k, and validBit flags which those are; row
// needs mR.Len() bytes and Step clears them first.
func Step(pool *Pool, n, m int, iR, dR, mR Range, mx, moe, ie, de *Wavefront, row []uint8) (iwf, dwf, mwf *Wavefront) {
	row = row[:mR.Len()]
	clear(row)

	// I~(s): sources shift k by +1.
	if !iR.Empty() {
		iwf = pool.Acquire(iR.Lo, iR.Hi)
		for k := iR.Lo; k <= iR.Hi; k++ {
			v, tag := moe.At(k-1), GTagOpen
			if ext := ie.At(k - 1); ext > v {
				v, tag = ext, GTagExt
			}
			if ValidOffset(v) {
				v = trim(v+1, k, n, m)
			}
			if ValidOffset(v) {
				iwf.Set(k, v)
				row[k-mR.Lo] |= validBit(CompI) | PackOrigin(0, tag, 0)
			}
		}
	}

	// D~(s): sources shift k by -1, offset unchanged.
	if !dR.Empty() {
		dwf = pool.Acquire(dR.Lo, dR.Hi)
		for k := dR.Lo; k <= dR.Hi; k++ {
			v, tag := moe.At(k+1), GTagOpen
			if ext := de.At(k + 1); ext > v {
				v, tag = ext, GTagExt
			}
			v = trim(v, k, n, m)
			if ValidOffset(v) {
				dwf.Set(k, v)
				row[k-mR.Lo] |= validBit(CompD) | PackOrigin(0, 0, tag)
			}
		}
	}

	// M~(s) = max(M~(s-x)+1, I~(s), D~(s)).
	if mR.Empty() {
		return iwf, dwf, nil
	}
	mwf = pool.Acquire(mR.Lo, mR.Hi)
	for k := mR.Lo; k <= mR.Hi; k++ {
		var sub int32 = Invalid
		if v := mx.At(k); ValidOffset(v) {
			sub = v + 1
		}
		o := row[k-mR.Lo]
		v, tag := sub, MTagSub
		if ins := iwf.At(k); ins > v {
			v, tag = ins, MTagIOpen
			if OriginTag(o, CompI) == GTagExt {
				tag = MTagIExt
			}
		}
		if del := dwf.At(k); del > v {
			v, tag = del, MTagDOpen
			if OriginTag(o, CompD) == GTagExt {
				tag = MTagDExt
			}
		}
		v = trim(v, k, n, m)
		if ValidOffset(v) {
			mwf.Set(k, v)
			row[k-mR.Lo] = o | validBit(CompM) | PackOrigin(tag, 0, 0)
		}
	}
	return iwf, dwf, mwf
}

// Extend is the extend() operator of Section 2.3 as the Extend sub-module
// computes it (Section 4.3.2, Figure 7), shared by both tiers: from base i of
// read a (n bases) and base j of read b (m bases), packed 16 bases per word
// in seqio's 2-bit layout (aw, bw), it compares one 16-base block per
// iteration until a mismatch or a read's end and returns the number of
// matching bases. The run ended at a read's end exactly when i+matches == n
// or j+matches == m. Each block is the REG_1/REG_2 concatenate-and-shift of
// two consecutive words; the codes past the bases both reads still have are
// forced to differ, so the first difference ends the run either way.
func Extend(aw, bw []uint32, n, m, i, j int) int {
	matches := 0
	for {
		limit := min(seqio.BasesPerWord, n-i, m-j)
		if limit <= 0 {
			return matches
		}
		// A shift by 32 (limit 16) forces nothing.
		if x := window(aw, i) ^ window(bw, j) | ^uint32(0)<<uint(2*limit); x != 0 {
			return matches + bits.TrailingZeros32(x)/2
		}
		matches += seqio.BasesPerWord
		i += seqio.BasesPerWord
		j += seqio.BasesPerWord
	}
}

// window assembles the 16 bases starting at base pos of a packed read,
// base pos in the least-significant code. Bases past the last word read
// as code 0.
func window(words []uint32, pos int) uint32 {
	w, sh := uint(pos)/seqio.BasesPerWord, 2*(uint(pos)%seqio.BasesPerWord)
	x := uint64(words[w])
	if w+1 < uint(len(words)) {
		x |= uint64(words[w+1]) << 32
	}
	return uint32(x >> sh)
}

// trim invalidates an offset on diagonal k that stepped outside the DP grid
// (offset > |b| = m, or i = offset-k > |a| = n), mirroring the hardware's
// validity rules.
func trim(off int32, k, n, m int) int32 {
	if !ValidOffset(off) || off > int32(m) || off-int32(k) > int32(n) {
		return Invalid
	}
	return off
}

// Done reports whether M~ wavefront mwf has reached the end of both
// sequences of a pair with |a| = n, |b| = m: the termination test of the
// score loop, cell (k = m-n, offset = m).
func Done(mwf *Wavefront, n, m int) bool {
	k := m - n
	return mwf.Valid(k) && mwf.At(k) >= int32(m)
}

// depth is the deepest score dependency of the recurrence, max(x, o+e): a
// wavefront of score s reads no score older than s-depth.
func depth(p align.Penalties) int {
	return max(p.Mismatch, p.GapOpen+p.GapExtend)
}

// ScoreMax is Equation 6: the largest alignment score a wavefront window of
// diagonals [-kmax, kmax] supports, Score_max = kmax*2 + x (the paper states
// it with x = 4). Alignments whose score would exceed it terminate with
// Success = 0, in the hardware and under Options.MaxK alike.
func ScoreMax(kmax int, p align.Penalties) int {
	return kmax*2 + p.Mismatch
}
