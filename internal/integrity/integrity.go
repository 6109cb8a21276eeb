// Package integrity is the end-to-end silent-data-corruption (SDC) defense:
// the witness algorithms shared by the image builder (internal/seqio), the
// accelerator model's hardware checkers (internal/core), the resilient
// driver (internal/soc) and the serving layer's device-health machinery
// (internal/serve).
//
// The defense is layered (DESIGN.md, "Integrity taxonomy"):
//
//  1. CRC32C payload witnesses embedded in every serialized pair block at
//     job-build time, checked by the Extractor at ingest and by the driver's
//     post-job readback audit — input-side bit flips are caught with
//     probability 1 (a stored witness of 0 means "absent" and skips the
//     check, a deliberate 2^-32 soundness gap documented on PairWitness).
//  2. Cheap per-pair result witnesses: score-plausibility bounds derived
//     from the penalty model (Bounds) and an O(|CIGAR|) replay check
//     (ReplayScore) that re-derives the score from the backtrace without
//     realigning.
//  3. Deterministic sampled shadow verification (Sample): a seeded hash of
//     the pair ID selects a fixed fraction of pairs for a full software-WFA
//     re-check, a cheaper alternative to checking every pair (ModeFull).
//
// Every witness is sound: it never rejects a result genuine hardware can
// produce, so a witness rejection is always evidence of corruption (or of a
// device so broken that escalating to software is right anyway). The
// converse does not hold for the host-side witnesses alone — a plausible
// wrong score passes the bounds — which is why the hardware-side witnesses
// (ingest CRC, wavefront parity, output-stream CRC) exist: they detect every
// injected single-event upset deterministically, and the driver discards the
// whole attempt on any evidence.
package integrity

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/align"
)

// CRC computes the CRC32C (Castagnoli) checksum of p — the one checksum
// algorithm used by every integrity witness in the repository. The stdlib
// caches the Castagnoli table, so this is allocation-free.
//
//vet:hotpath
func CRC(p []byte) uint32 {
	return crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli))
}

// CRCUpdate extends a running CRC32C checksum with p.
//
//vet:hotpath
func CRCUpdate(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), p)
}

// Mode selects how much verification RunResilient applies to hardware
// results. The zero value is ModeWitness: the witness checks are the default
// defense and must be disabled explicitly.
type Mode uint8

const (
	// ModeWitness (the zero value) runs the cheap per-pair witnesses:
	// score-plausibility bounds, failure plausibility, the CIGAR replay
	// check under backtrace, the hardware SDC evidence discard and the
	// post-job readback audit.
	ModeWitness Mode = iota
	// ModeOff disables all integrity checking and restores the legacy
	// structural validation only.
	ModeOff
	// ModeSampled runs the witnesses plus a full software-WFA shadow
	// verification on a deterministic Rate-sized sample of pairs.
	ModeSampled
	// ModeFull runs the witnesses plus the software oracle on every pair.
	ModeFull
)

// String names the mode for diagnostics.
func (m Mode) String() string {
	switch m {
	case ModeWitness:
		return "witness"
	case ModeOff:
		return "off"
	case ModeSampled:
		return "sampled"
	case ModeFull:
		return "full"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Policy is the verification policy of one RunResilient call.
type Policy struct {
	// Mode selects the verification level; the zero value is ModeWitness.
	Mode Mode
	// Rate is the sampled fraction for ModeSampled, in (0, 1]. It must be
	// zero for every other mode (Validate rejects, never clamps). The rate
	// is quantized to 1/10000 units by Permyriad.
	Rate float64
	// Seed seeds the deterministic sampler. Any value is valid; the same
	// (Seed, pair ID) always makes the same sampling decision.
	Seed uint64
}

// Validate rejects invalid policy values, mirroring the
// zero-selects-a-default / explicit-must-be-exact convention of
// soc.ResilientOptions.
func (p Policy) Validate() error {
	switch p.Mode {
	case ModeWitness, ModeOff, ModeSampled, ModeFull:
	default:
		return fmt.Errorf("integrity: unknown verify mode %d", uint8(p.Mode))
	}
	if p.Mode == ModeSampled {
		if !(p.Rate > 0 && p.Rate <= 1) {
			return fmt.Errorf("integrity: sampled rate %v outside (0, 1]", p.Rate)
		}
		return nil
	}
	if p.Rate != 0 {
		return fmt.Errorf("integrity: rate %v requires ModeSampled (mode is %v)", p.Rate, p.Mode)
	}
	return nil
}

// Permyriad returns the sampling rate in 1/10000 units (the sampler's
// granularity), rounding to nearest and never rounding a positive rate to
// zero — asking for sampling always samples something.
func (p Policy) Permyriad() int {
	if p.Mode != ModeSampled {
		return 0
	}
	q := int(p.Rate*10000 + 0.5)
	if q < 1 {
		q = 1
	}
	if q > 10000 {
		q = 10000
	}
	return q
}

// Sample is the deterministic shadow-verification sampler: it reports
// whether the pair with the given ID falls into the permyriad/10000 sample
// under seed. The decision depends only on (seed, id) — never on timing or
// iteration order — so a sampled run is reproducible and a corrupted device
// cannot steer results away from the sample.
//
//vet:hotpath
func Sample(seed uint64, id uint32, permyriad int) bool {
	if permyriad <= 0 {
		return false
	}
	if permyriad >= 10000 {
		return true
	}
	return mix64(seed^uint64(id)*0x9E3779B97F4A7C15)%10000 < uint64(permyriad)
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Witness rejection reasons. All are static so the hot path allocates
// nothing when rejecting.
var (
	// ErrUnsupportedSuccess reports Success=true on a pair the hardware
	// cannot process at all (over-length or invalid bases).
	ErrUnsupportedSuccess = errors.New("integrity: success reported for an unsupported pair")
	// ErrScoreRange reports a score outside [0, ScoreMax].
	ErrScoreRange = errors.New("integrity: score outside [0, ScoreMax]")
	// ErrBelowGapBound reports a score below the forced-gap lower bound.
	ErrBelowGapBound = errors.New("integrity: score below the length-difference gap bound")
	// ErrAboveTrivialBound reports a score above the trivial-alignment
	// upper bound.
	ErrAboveTrivialBound = errors.New("integrity: score above the trivial-alignment bound")
	// ErrZeroScoreMismatch reports score 0 for unequal sequences.
	ErrZeroScoreMismatch = errors.New("integrity: zero score for unequal sequences")
	// ErrImplausibleFailure reports Success=false on a pair that is
	// supported, inside the diagonal band and within the score budget —
	// genuine hardware always succeeds on such a pair.
	ErrImplausibleFailure = errors.New("integrity: failure reported for a pair the hardware always aligns")
	// ErrCIGARInvalid reports a backtrace that does not replay over the
	// pair.
	ErrCIGARInvalid = errors.New("integrity: CIGAR does not replay over the pair")
	// ErrCIGARScore reports a backtrace whose replayed score disagrees
	// with the reported score.
	ErrCIGARScore = errors.New("integrity: CIGAR replay score disagrees with the reported score")
)

// Bounds is the score-plausibility witness: penalty-model bounds every
// genuine hardware result satisfies. Constructing it is free (a value
// copy); soundness arguments are on each check.
type Bounds struct {
	Pen      align.Penalties
	ScoreMax int // Equation 6: 2*KMax + x
	KMax     int // diagonal band half-width (Section 4.3.1)
}

// NewBounds builds the witness for one accelerator configuration.
func NewBounds(pen align.Penalties, scoreMax, kMax int) Bounds {
	return Bounds{Pen: pen, ScoreMax: scoreMax, KMax: kMax}
}

// TrivialBound is the cost of the trivial alignment — min(n,m) diagonal
// columns, all mismatching, plus one gap covering the length difference.
// The optimal score never exceeds it, and the trivial path stays inside the
// diagonal band whenever |n-m| <= KMax, so it also upper-bounds the banded
// hardware score.
func (w Bounds) TrivialBound(lenA, lenB int) int {
	short, d := lenA, lenB-lenA
	if d < 0 {
		short, d = lenB, -d
	}
	bound := short * w.Pen.Mismatch
	if d > 0 {
		bound += w.Pen.GapOpen + d*w.Pen.GapExtend
	}
	return bound
}

// CheckSuccess witnesses a Success=true result. supported is the driver's
// software-visible support predicate (length cap and base alphabet). Every
// check is sound: a genuine banded-WFA score s satisfies 0 <= s <= ScoreMax
// (the hardware fails past ScoreMax), s >= GapCost(|n-m|) when the lengths
// differ (any alignment opens at least one gap of that length), s <=
// TrivialBound (optimality), and s == 0 only for identical sequences.
//
//vet:hotpath
func (w Bounds) CheckSuccess(a, b []byte, score int, supported bool) error {
	if !supported {
		return ErrUnsupportedSuccess
	}
	if score < 0 || score > w.ScoreMax {
		return ErrScoreRange
	}
	d := len(a) - len(b)
	if d < 0 {
		d = -d
	}
	if d > 0 && score < w.Pen.GapOpen+d*w.Pen.GapExtend {
		return ErrBelowGapBound
	}
	if score > w.TrivialBound(len(a), len(b)) {
		return ErrAboveTrivialBound
	}
	if score == 0 && !bytes.Equal(a, b) {
		return ErrZeroScoreMismatch
	}
	return nil
}

// CheckFailure witnesses a Success=false result: a failure is plausible iff
// the pair is unsupported, its end diagonal lies outside the band
// (|n-m| > KMax), or the trivial bound exceeds ScoreMax (the budget may
// genuinely run out). Otherwise the banded WFA always terminates with a
// score at most TrivialBound <= ScoreMax, so a failure is corruption
// evidence.
//
//vet:hotpath
func (w Bounds) CheckFailure(lenA, lenB int, supported bool) error {
	if !supported {
		return nil
	}
	d := lenA - lenB
	if d < 0 {
		d = -d
	}
	if d > w.KMax {
		return nil
	}
	if w.TrivialBound(lenA, lenB) > w.ScoreMax {
		return nil
	}
	return ErrImplausibleFailure
}

// ReplayScore is the O(|CIGAR|) replay witness: one pass that validates the
// transcript against the pair (exact consumption, M/X agreement with the
// bases) and re-derives its gap-affine score. ok=false means the transcript
// is not a legal alignment of a to b. It is exactly equivalent to
// CIGAR.Validate(a, b) == nil plus CIGAR.Score(p) (FuzzCIGARWitness pins
// the equivalence) but allocation-free and single-pass.
//
//vet:hotpath
func ReplayScore(c align.CIGAR, a, b []byte, p align.Penalties) (score int, ok bool) {
	i, j := 0, 0
	prev := align.Op(0)
	for _, op := range c {
		switch op {
		case align.OpMatch:
			if i >= len(a) || j >= len(b) || a[i] != b[j] {
				return 0, false
			}
			i++
			j++
		case align.OpMismatch:
			if i >= len(a) || j >= len(b) || a[i] == b[j] {
				return 0, false
			}
			score += p.Mismatch
			i++
			j++
		case align.OpInsert:
			if j >= len(b) {
				return 0, false
			}
			if prev != align.OpInsert {
				score += p.GapOpen
			}
			score += p.GapExtend
			j++
		case align.OpDelete:
			if i >= len(a) {
				return 0, false
			}
			if prev != align.OpDelete {
				score += p.GapOpen
			}
			score += p.GapExtend
			i++
		default:
			return 0, false
		}
		prev = op
	}
	if i != len(a) || j != len(b) {
		return 0, false
	}
	return score, true
}

// CheckCIGAR is the backtrace witness: the CIGAR must replay over the pair
// and re-price to the reported score.
//
//vet:hotpath
func CheckCIGAR(c align.CIGAR, a, b []byte, score int, p align.Penalties) error {
	rs, ok := ReplayScore(c, a, b, p)
	if !ok {
		return ErrCIGARInvalid
	}
	if rs != score {
		return ErrCIGARScore
	}
	return nil
}
