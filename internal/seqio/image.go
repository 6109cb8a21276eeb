package seqio

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/integrity"
)

// Pair is one input to the accelerator: an alignment ID unique within the
// input set and the two sequences to align.
type Pair struct {
	ID uint32
	A  []byte // query (vertical axis of the DP-matrix)
	B  []byte // text  (horizontal axis of the DP-matrix)
}

// InputSet is an ordered collection of pairs sharing one MAX_READ_LEN.
type InputSet struct {
	Pairs      []Pair
	MaxReadLen int // divisible by 16; 0 means "compute from the pairs"
}

// ErrBadImage reports a malformed main-memory input image.
var ErrBadImage = errors.New("seqio: malformed input image")

// DummyBase is the byte used to pad sequences up to MAX_READ_LEN. The
// Extractor ignores padding (it knows the true lengths from the header), so
// any in-alphabet byte works; 'A' keeps padded images valid 2-bit data.
const DummyBase = BaseA

// RoundReadLen rounds n up to the next multiple of 16, the MAX_READ_LEN
// divisibility rule of Section 4.2.
func RoundReadLen(n int) int {
	if n <= 0 {
		return SectionBytes
	}
	return (n + SectionBytes - 1) / SectionBytes * SectionBytes
}

// ComputeMaxReadLen returns the smallest legal MAX_READ_LEN for the set.
func (s *InputSet) ComputeMaxReadLen() int {
	longest := 0
	for _, p := range s.Pairs {
		if len(p.A) > longest {
			longest = len(p.A)
		}
		if len(p.B) > longest {
			longest = len(p.B)
		}
	}
	return RoundReadLen(longest)
}

// EffectiveMaxReadLen resolves the set's MAX_READ_LEN: the explicit value if
// set, otherwise the computed minimum.
func (s *InputSet) EffectiveMaxReadLen() int {
	if s.MaxReadLen > 0 {
		return s.MaxReadLen
	}
	return s.ComputeMaxReadLen()
}

// PairSections returns the number of 16-byte memory sections one pair
// occupies in the input image for a given MAX_READ_LEN: one header section
// (ID, len a, len b) plus the padded bases of both sequences at one byte per
// base.
func PairSections(maxReadLen int) int {
	return 1 + 2*(maxReadLen/SectionBytes)
}

// ImageBytes returns the total size in bytes of the input image for the set.
func (s *InputSet) ImageBytes() int {
	return len(s.Pairs) * PairSections(s.EffectiveMaxReadLen()) * SectionBytes
}

// WitnessOff is the byte offset of the CRC32C integrity witness inside a
// pair's header section (the 4 bytes that were a zero pad before the
// integrity layer). A stored witness of 0 means "absent" — images built by
// hand or by older builders skip the check — which leaves a deliberate
// 2^-32 soundness gap documented on PairWitness.
const WitnessOff = 12

// PairWitness computes the CRC32C integrity witness of one serialized pair
// block (header section plus both padded payload sections) with the witness
// field itself taken as zero. BuildImage stores it at WitnessOff; the
// Extractor recomputes it at ingest and the resilient driver re-checks it in
// the post-job readback audit. The zero value doubles as the "no witness"
// sentinel, so an image whose payload happens to checksum to 0 is serialized
// unprotected (probability 2^-32 per pair — accepted and documented rather
// than special-cased).
//
//vet:hotpath
func PairWitness(block []byte) uint32 {
	crc := integrity.CRC(block[:WitnessOff])
	crc = integrity.CRCUpdate(crc, witnessZero[:])
	return integrity.CRCUpdate(crc, block[WitnessOff+4:])
}

// witnessZero stands in for the witness field when hashing around it. It is
// package-level (not a local) because the CRC parameter leaks in escape
// analysis, and a local array would be heap-allocated on every call —
// TestWitnessAuditZeroAllocs pins the audit at zero.
var witnessZero [4]byte

// AuditImage re-verifies the per-pair witnesses of a serialized image (the
// resilient driver's post-job readback audit): it returns the indices of
// pairs whose stored witness is nonzero and does not match the recomputed
// value. A nil return means the image is clean, so the steady-state audit
// allocates nothing. Only whole pair blocks inside img are audited; a
// negative maxReadLen, or one larger than img, leaves none.
func AuditImage(img []byte, maxReadLen, numPairs int) []int {
	if maxReadLen < 0 || maxReadLen > len(img) {
		return nil
	}
	stride := PairSections(maxReadLen) * SectionBytes
	var bad []int
	for i := 0; i < numPairs && i < len(img)/stride; i++ {
		block := img[i*stride : (i+1)*stride]
		want := binary.LittleEndian.Uint32(block[WitnessOff : WitnessOff+4])
		if want != 0 && PairWitness(block) != want {
			bad = append(bad, i)
		}
	}
	return bad
}

// BuildImage serializes the set into the main-memory layout the accelerator's
// DMA reads (Section 4.2):
//
//	section 0:  ID (4B LE) | len a (4B LE) | len b (4B LE) | 4B CRC32C witness
//	sections 1..:  sequence a bases, one byte each, padded to MAX_READ_LEN
//	sections ..:   sequence b bases, likewise
//
// The witness (see PairWitness) covers the rest of the pair block; the
// hardware model checks it at ingest and flags mismatching pairs
// unsupported, so a bit flip between job build and the Input_Seq RAMs can
// never produce a plausible wrong answer.
//
// Sequences longer than MAX_READ_LEN and 'N' bases are serialized as-is: the
// *Extractor* is responsible for detecting unsupported reads and reporting
// Success=0 (Section 4.2), so the image builder must not reject them.
func (s *InputSet) BuildImage() ([]byte, error) {
	ml := s.EffectiveMaxReadLen()
	if ml%SectionBytes != 0 {
		return nil, fmt.Errorf("seqio: MAX_READ_LEN %d not divisible by %d", ml, SectionBytes)
	}
	img := make([]byte, 0, s.ImageBytes())
	for _, p := range s.Pairs {
		start := len(img)
		var hdr [SectionBytes]byte
		binary.LittleEndian.PutUint32(hdr[0:4], p.ID)
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(p.A)))
		binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(p.B)))
		img = append(img, hdr[:]...)
		for _, seq := range [][]byte{p.A, p.B} {
			if len(seq) > ml {
				// Over-length read: serialize the truncated body; the header
				// still carries the true length so the Extractor can flag it.
				seq = seq[:ml]
			}
			img = append(img, seq...)
			for i := len(seq); i < ml; i++ {
				img = append(img, DummyBase)
			}
		}
		binary.LittleEndian.PutUint32(img[start+WitnessOff:start+WitnessOff+4], PairWitness(img[start:]))
	}
	return img, nil
}

// ParseImage reverses BuildImage given the MAX_READ_LEN the image was built
// with and the number of pairs it contains.
func ParseImage(img []byte, maxReadLen, numPairs int) (*InputSet, error) {
	if maxReadLen%SectionBytes != 0 {
		return nil, fmt.Errorf("%w: MAX_READ_LEN %d not divisible by %d", ErrBadImage, maxReadLen, SectionBytes)
	}
	stride := PairSections(maxReadLen) * SectionBytes
	if len(img) < stride*numPairs {
		return nil, fmt.Errorf("%w: image %dB, need %dB for %d pairs", ErrBadImage, len(img), stride*numPairs, numPairs)
	}
	set := &InputSet{MaxReadLen: maxReadLen}
	for i := 0; i < numPairs; i++ {
		rec := img[i*stride : (i+1)*stride]
		id := binary.LittleEndian.Uint32(rec[0:4])
		la := int(binary.LittleEndian.Uint32(rec[4:8]))
		lb := int(binary.LittleEndian.Uint32(rec[8:12]))
		body := rec[SectionBytes:]
		takeA, takeB := la, lb
		if takeA > maxReadLen {
			takeA = maxReadLen
		}
		if takeB > maxReadLen {
			takeB = maxReadLen
		}
		a := make([]byte, takeA)
		copy(a, body[:takeA])
		b := make([]byte, takeB)
		copy(b, body[maxReadLen:maxReadLen+takeB])
		p := Pair{ID: id, A: a, B: b}
		// Preserve declared over-length so unsupported-read detection
		// downstream still sees the true length.
		if la > maxReadLen {
			p.A = append(p.A, make([]byte, la-maxReadLen)...)
			for j := takeA; j < la; j++ {
				p.A[j] = DummyBase
			}
		}
		if lb > maxReadLen {
			p.B = append(p.B, make([]byte, lb-maxReadLen)...)
			for j := takeB; j < lb; j++ {
				p.B[j] = DummyBase
			}
		}
		set.Pairs = append(set.Pairs, p)
	}
	return set, nil
}
