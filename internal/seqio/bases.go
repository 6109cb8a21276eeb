// Package seqio implements the data representations that cross the
// CPU/accelerator boundary in the WFAsic SoC:
//
//   - the DNA base alphabet and its 2-bit encoding used inside the
//     accelerator's Input_Seq RAMs (Section 4.2 of the paper: "the Extractor
//     module maps each base of one byte to two bits, so the blocks of 16
//     bases fit in four bytes"),
//   - the main-memory input-set image made of 16-byte sections (one header
//     section per pair carrying the alignment ID and both lengths, then the
//     padded base bytes of each sequence),
//   - a plain-text pair format used by the command-line tools.
package seqio

import (
	"errors"
	"fmt"
)

// SectionBytes is the width of the AXI-Full data bus and therefore of every
// memory section, FIFO word and DMA beat in the design.
const SectionBytes = 16

// BasesPerWord is the number of 2-bit packed bases in one 4-byte Input_Seq
// RAM word.
const BasesPerWord = 16

// The supported alphabet. 'N' (unknown) bases are representable in byte form
// but are rejected by the accelerator's Extractor (Section 4.2).
const (
	BaseA byte = 'A'
	BaseC byte = 'C'
	BaseG byte = 'G'
	BaseT byte = 'T'
	BaseN byte = 'N'
)

// Alphabet is the set of bases the accelerator accepts, in code order.
var Alphabet = [4]byte{BaseA, BaseC, BaseG, BaseT}

// ErrUnsupportedBase reports a byte outside the accelerator's alphabet.
var ErrUnsupportedBase = errors.New("seqio: unsupported base")

// noCode marks a byte outside the alphabet in baseCodes.
const noCode = 0xFF

// baseCodes is the Extractor's direct base map (Section 4.2) as a lookup
// table: the 2-bit code of each Alphabet byte and noCode for everything
// else, lowercase included. It is built once at initialization and only
// read afterwards.
var baseCodes = func() (t [256]uint8) {
	for i := range t {
		t[i] = noCode
	}
	for code, b := range Alphabet {
		t[b] = uint8(code)
	}
	return t
}()

// Code2Bit returns the 2-bit code of a base byte: A=0, C=1, G=2, T=3.
// Any other byte (lowercase and 'N' included) is an error.
func Code2Bit(b byte) (uint8, error) {
	if code := baseCodes[b]; code != noCode {
		return code, nil
	}
	return 0, unsupportedBase(b)
}

// unsupportedBase builds Code2Bit's error for a byte outside the alphabet.
// It runs on the reject path only.
//
//vet:coldpath
func unsupportedBase(b byte) error {
	return fmt.Errorf("%w: %q", ErrUnsupportedBase, b)
}

// Base2Bit returns the base byte for a 2-bit code (only the low two bits are
// used).
func Base2Bit(code uint8) byte {
	return Alphabet[code&3]
}

// ValidateSequence checks every byte of s against the accelerator alphabet
// and returns the index of the first offending byte.
func ValidateSequence(s []byte) error {
	for i, b := range s {
		if baseCodes[b] == noCode {
			return badPosition(i, b)
		}
	}
	return nil
}

// badPosition builds ValidateSequence's error for the first bad byte. It
// runs on the reject path only.
//
//vet:coldpath
func badPosition(i int, b byte) error {
	return fmt.Errorf("seqio: position %d: %w", i, unsupportedBase(b))
}

// PackWord packs up to 16 base bytes into one little-endian 4-byte Input_Seq
// RAM word: base i occupies bits [2i, 2i+2). Missing trailing bases pack as
// code 0.
func PackWord(bases []byte) (uint32, error) {
	if len(bases) > BasesPerWord {
		return 0, wordTooLong(len(bases))
	}
	var w uint32
	for i, b := range bases {
		code := baseCodes[b]
		if code == noCode {
			return 0, unsupportedBase(b)
		}
		w |= uint32(code) << (2 * i)
	}
	return w, nil
}

// wordTooLong builds PackWord's error for more bases than one word holds.
// It runs on the reject path only.
//
//vet:coldpath
func wordTooLong(n int) error {
	return fmt.Errorf("seqio: PackWord got %d bases, max %d", n, BasesPerWord)
}

// UnpackWord expands a packed word back into n base bytes (n <= 16).
func UnpackWord(w uint32, n int) []byte {
	if n > BasesPerWord {
		n = BasesPerWord
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = Base2Bit(uint8(w >> (2 * i)))
	}
	return out
}

// PackSequence packs a whole sequence into Input_Seq RAM words, 16 bases per
// word, with the final word zero-padded.
func PackSequence(s []byte) ([]uint32, error) {
	words := make([]uint32, 0, (len(s)+BasesPerWord-1)/BasesPerWord)
	return PackSequenceInto(words, s)
}

// PackSequenceInto is PackSequence appending into a caller-provided buffer
// (typically buf[:0] of a retained slice), so the steady-state load path can
// reuse one allocation across pairs.
func PackSequenceInto(words []uint32, s []byte) ([]uint32, error) {
	for i := 0; i < len(s); i += BasesPerWord {
		end := i + BasesPerWord
		if end > len(s) {
			end = len(s)
		}
		w, err := PackWord(s[i:end])
		if err != nil {
			return nil, wordError(len(words), err)
		}
		words = append(words, w) //vet:allow hotalloc appends into the caller's buffer, amortized across pairs
	}
	return words, nil
}

// wordError builds PackSequenceInto's error for the word that failed to
// pack. It runs on the reject path only.
//
//vet:coldpath
func wordError(word int, err error) error {
	return fmt.Errorf("seqio: word %d: %w", word, err)
}

// UnpackSequence reverses PackSequence for a sequence of length n.
func UnpackSequence(words []uint32, n int) []byte {
	out := make([]byte, 0, n)
	for _, w := range words {
		take := n - len(out)
		if take <= 0 {
			break
		}
		if take > BasesPerWord {
			take = BasesPerWord
		}
		out = append(out, UnpackWord(w, take)...)
	}
	return out
}
