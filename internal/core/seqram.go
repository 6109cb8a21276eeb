package core

import (
	"repro/internal/seqio"
	"repro/internal/wfa"
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

// LoadSeqRAMInto packs a byte sequence into dst, reusing dst's word storage.
// The Extractor loads each pair into its target Aligner's retained SeqRAMs
// through this form, so dispatching allocates nothing once the buffers have
// grown to the job's read length. A byte outside the alphabet is an error;
// the Extractor rejects such pairs before loading.
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

// extendCell runs the Extend sub-module on one cell (Section 4.3.2): the
// shared comparator from base i of a and j of b, one 16-base block per
// cycle. It returns the matches and the blocks consumed, one per 16
// matching bases plus the block that ended the run.
func extendCell(a, b *SeqRAM, i, j int) (matches, blocks int) {
	matches = wfa.Extend(a.Words, b.Words, a.Length, b.Length, i, j)
	return matches, matches/seqio.BasesPerWord + 1
}
