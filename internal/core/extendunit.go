package core

import (
	"math/bits"

	"repro/internal/seqio"
)

// SeqRAM is one Input_Seq RAM image (Section 4.2): "Alignment ID is stored
// in address 0, length in address 1, and sequence bases from address 2
// onward", four bytes wide, 16 bases packed per word. The model keeps the
// base words in a slice and the header fields alongside.
type SeqRAM struct {
	ID     uint32
	Length int
	Words  []uint32 // 2-bit packed bases, 16 per word
}

// LoadSeqRAM packs a byte sequence into a SeqRAM. The caller must have
// validated the alphabet (the Extractor rejects 'N' before loading).
func LoadSeqRAM(id uint32, seq []byte) (*SeqRAM, error) {
	r := &SeqRAM{}
	if err := LoadSeqRAMInto(r, id, seq); err != nil {
		return nil, err
	}
	return r, nil
}

// LoadSeqRAMInto packs a byte sequence into dst, reusing dst's word storage.
// The Extractor loads each pair into its target Aligner's retained SeqRAMs
// through this form, so dispatching allocates nothing once the buffers have
// grown to the job's read length.
func LoadSeqRAMInto(dst *SeqRAM, id uint32, seq []byte) error {
	words, err := seqio.PackSequenceInto(dst.Words[:0], seq)
	if err != nil {
		return err
	}
	dst.ID = id
	dst.Length = len(seq)
	dst.Words = words
	return nil
}

// Window16 assembles the 16-base window starting at base position pos, the
// REG_1/REG_2 concatenate-and-shift of the Extend sub-module (Figure 7):
// two consecutive RAM words are fetched, concatenated to 64 bits and shifted
// so the starting base lands in the least-significant position. Bases past
// the end of the stored sequence read as zero.
func (r *SeqRAM) Window16(pos int) uint32 {
	word := pos / seqio.BasesPerWord
	sh := uint(2 * (pos % seqio.BasesPerWord))
	var lo, hi uint64
	if word < len(r.Words) {
		lo = uint64(r.Words[word])
	}
	if word+1 < len(r.Words) {
		hi = uint64(r.Words[word+1])
	}
	return uint32((hi<<32 | lo) >> sh)
}

// ExtendResult reports one Extend sub-module run for a single cell.
type ExtendResult struct {
	Matches int // contiguous matching bases found
	Blocks  int // 16-base comparator iterations consumed (>= 1)
}

// ExtendDiag runs the Extend sub-module: starting at position i of sequence
// a and j of sequence b, compare 16-base blocks per cycle until a mismatch
// or a sequence end (Section 4.3.2). It is the hardware counterpart of the
// software extend() in internal/wfa; TestExtendDiagMatchesByteCompare checks
// it against a plain byte comparison.
func ExtendDiag(a, b *SeqRAM, i, j int) ExtendResult {
	res := ExtendResult{}
	for {
		res.Blocks++
		limit := 16
		if rem := a.Length - i; rem < limit {
			limit = rem
		}
		if rem := b.Length - j; rem < limit {
			limit = rem
		}
		if limit <= 0 {
			return res
		}
		wa := a.Window16(i)
		wb := b.Window16(j)
		x := wa ^ wb
		var mask uint32 = ^uint32(0)
		if limit < 16 {
			mask = 1<<(2*limit) - 1
		}
		x &= mask
		if x == 0 {
			// All limit bases match.
			res.Matches += limit
			i += limit
			j += limit
			if limit < 16 {
				return res // hit a sequence end
			}
			continue
		}
		matched := bits.TrailingZeros32(x) / 2
		res.Matches += matched
		return res
	}
}
