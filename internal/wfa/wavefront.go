// Package wfa implements the WaveFront Alignment algorithm of the paper's
// Section 2.3 (Equation 3): exact gap-affine pairwise alignment in O(n*s)
// time, identical results to Smith-Waterman-Gotoh.
//
// The implementation mirrors the hardware faithfully:
//
//   - offsets follow Equation 4 (offset = j, i = offset - k, k = j - i);
//   - ties in the max-reductions are broken in a fixed order (substitution,
//     then insertion, then deletion; gap-open beats gap-extend) so the
//     software CIGAR matches the accelerator's backtrace bit-for-bit;
//   - each computed cell records a 5-bit origin exactly as the Compute
//     sub-module emits it (3 bits for M~, 1 for I~, 1 for D~, Section 4.3.3)
//     into a per-score origin row outside the wavefronts; the backtrace
//     reads origins only, as the CPU reads the accelerator's stream;
//   - out-of-matrix cells (offset beyond |b|, or i beyond |a|) are trimmed to
//     the invalid sentinel immediately after compute, as the hardware's
//     column initialization/validity tracking does.
package wfa

import "math"

// Invalid is the sentinel offset of a never-computed or trimmed cell. It is
// negative enough that adding small penalties can never make it win a max.
// The hardware initializes wavefront RAM columns to negative values for the
// same purpose (Section 4.3.1).
const Invalid int32 = math.MinInt32 / 2

// Component selects one of the three wavefront matrices of Equation 3.
type Component uint8

// The three wavefront components.
const (
	CompM Component = iota
	CompI
	CompD
	numComponents
)

// String names the component with its conventional WFA letter.
func (c Component) String() string {
	switch c {
	case CompM:
		return "M"
	case CompI:
		return "I"
	case CompD:
		return "D"
	}
	return "?"
}

// Origin tags. MTag* values occupy 3 bits and enumerate the five origins of
// an M~ cell (Section 4.3.3: "the origin of a cell in the I~, D~, and M~
// wavefront matrices can come from 2, 2 and 5 positions, respectively").
// GTag* values are the 1-bit origins of I~ and D~ cells.
const (
	MTagNone  uint8 = 0 // cell invalid or the initial cell M~(0,0)
	MTagSub   uint8 = 1 // from M~(s-x, k) + 1
	MTagIOpen uint8 = 2 // from I~(s,k) which opened from M~(s-o-e, k-1)
	MTagIExt  uint8 = 3 // from I~(s,k) which extended I~(s-e, k-1)
	MTagDOpen uint8 = 4 // from D~(s,k) which opened from M~(s-o-e, k+1)
	MTagDExt  uint8 = 5 // from D~(s,k) which extended D~(s-e, k+1)

	GTagOpen uint8 = 0 // gap opened from M~
	GTagExt  uint8 = 1 // gap extended the same-component chain
)

// PackOrigin packs the per-cell origin record the Compute sub-module emits:
// bits [4:2] the 3-bit M origin, bit 1 the I origin, bit 0 the D origin.
func PackOrigin(mTag, iTag, dTag uint8) uint8 {
	return mTag<<2 | (iTag&1)<<1 | dTag&1
}

// OriginMask selects the streamed 5 bits of a Step origin row cell. Step
// uses the three spare high bits to mark which components of the cell hold
// a valid offset (validBit); the hardware streams only the origin.
const OriginMask uint8 = 0x1F

// validBit is the row flag of a valid component c cell: bit 5 for M~, 6 for
// I~, 7 for D~.
func validBit(c Component) uint8 {
	return 1 << (5 + c)
}

// OriginTag extracts component c's tag from a packed origin, the tag
// BackStep decodes for a cell of c. Any validity flags above the 5 origin
// bits are ignored.
func OriginTag(o uint8, c Component) uint8 {
	switch c {
	case CompI:
		return o >> 1 & 1
	case CompD:
		return o & 1
	}
	return o >> 2 & 7
}

// Wavefront is one vector of Equation 3 for a single score and component:
// offsets for the diagonals Lo..Hi inclusive. Origins live outside it, in
// the row Step writes.
type Wavefront struct {
	Lo, Hi int     // valid diagonal range, inclusive; Lo > Hi means empty
	Off    []int32 // offset of diagonal k at index k-Lo
}

// Len returns the number of diagonals the wavefront spans (0 when empty).
func (w *Wavefront) Len() int {
	if w == nil || w.Hi < w.Lo {
		return 0
	}
	return w.Hi - w.Lo + 1
}

// At returns the offset at diagonal k, or Invalid when k is out of range or
// the wavefront is nil.
func (w *Wavefront) At(k int) int32 {
	if w == nil || k < w.Lo || k > w.Hi {
		return Invalid
	}
	return w.Off[k-w.Lo]
}

// Set stores the offset at diagonal k; k must be within [Lo, Hi].
func (w *Wavefront) Set(k int, off int32) {
	w.Off[k-w.Lo] = off
}

// Valid reports whether diagonal k holds a real (non-sentinel) offset.
func (w *Wavefront) Valid(k int) bool {
	return w.At(k) > Invalid/2
}

// ValidOffset reports whether a raw offset value is a real offset.
func ValidOffset(off int32) bool {
	return off > Invalid/2
}
