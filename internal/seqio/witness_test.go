// Witness tests live in an external package so they can drive the image
// builder with seqgen's paper profiles (seqgen imports seqio, so an internal
// test would be an import cycle).
package seqio_test

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/seqgen"
	"repro/internal/seqio"
)

func buildProfileImage(t *testing.T, p seqgen.Profile, seed uint64) (*seqio.InputSet, []byte, int) {
	t.Helper()
	set := seqgen.New(seed, seed^0xD1CE).Set(p)
	img, err := set.BuildImage()
	if err != nil {
		t.Fatalf("%s: BuildImage: %v", p.Name, err)
	}
	return set, img, set.EffectiveMaxReadLen()
}

// TestBuildImageStoresWitnesses pins the build-side half of the input
// defense: every pair block of a built image carries a nonzero stored
// witness at WitnessOff that matches the recomputed PairWitness, and a clean
// image audits clean.
func TestBuildImageStoresWitnesses(t *testing.T) {
	set, img, maxReadLen := buildProfileImage(t, seqgen.Profile{
		Name: "w", Length: 200, ErrorRate: 0.08, NumPairs: 6,
	}, 11)
	stride := seqio.PairSections(maxReadLen) * seqio.SectionBytes
	for i := range set.Pairs {
		block := img[i*stride : (i+1)*stride]
		stored := binary.LittleEndian.Uint32(block[seqio.WitnessOff : seqio.WitnessOff+4])
		if stored == 0 {
			t.Fatalf("pair %d: builder left the witness absent", i)
		}
		if got := seqio.PairWitness(block); got != stored {
			t.Fatalf("pair %d: stored witness %#x, recomputed %#x", i, stored, got)
		}
	}
	if bad := seqio.AuditImage(img, maxReadLen, len(set.Pairs)); bad != nil {
		t.Fatalf("clean image failed the audit: pairs %v", bad)
	}
}

// TestAuditImageCatchesRandomFlips is the input-witness property across the
// six paper profiles: flip one seeded-random bit anywhere in a built image —
// header, witness field or payload — and the audit flags exactly the struck
// pair. (The exhaustive every-bit sweep lives at the driver level in
// internal/soc's TestInputWitnessCatchesEverySingleBitFlip; this test covers
// the paper's full length/error-rate envelope instead.)
func TestAuditImageCatchesRandomFlips(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for pi, p := range seqgen.PaperSets(2) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			set, img, maxReadLen := buildProfileImage(t, p, uint64(pi)+1)
			stride := seqio.PairSections(maxReadLen) * seqio.SectionBytes
			rng := rand.New(rand.NewPCG(uint64(pi), 0xF11B))
			for trial := 0; trial < trials; trial++ {
				bit := rng.IntN(stride * len(set.Pairs) * 8)
				pair := bit / 8 / stride
				flipped := append([]byte(nil), img...)
				flipped[bit/8] ^= 1 << (bit % 8)
				block := flipped[pair*stride : (pair+1)*stride]
				if binary.LittleEndian.Uint32(block[seqio.WitnessOff:seqio.WitnessOff+4]) == 0 {
					// The flip forged the "no witness" sentinel — the
					// documented 2^-32 soundness gap. Redraw.
					trial--
					continue
				}
				bad := seqio.AuditImage(flipped, maxReadLen, len(set.Pairs))
				if len(bad) != 1 || bad[0] != pair {
					t.Fatalf("trial %d: flip of bit %d in pair %d audited as %v",
						trial, bit, pair, bad)
				}
			}
		})
	}
}

var auditSink []int

// TestWitnessAuditZeroAllocs pins the readback audit's steady state at zero
// allocations: PairWitness is pure arithmetic over the block, and a clean
// AuditImage returns nil without ever growing a slice — the driver runs it
// after every job, so it must be free.
func TestWitnessAuditZeroAllocs(t *testing.T) {
	set, img, maxReadLen := buildProfileImage(t, seqgen.Profile{
		Name: "w", Length: 150, ErrorRate: 0.05, NumPairs: 4,
	}, 23)
	stride := seqio.PairSections(maxReadLen) * seqio.SectionBytes
	block := img[:stride]
	if allocs := testing.AllocsPerRun(2000, func() {
		sinkU32 = seqio.PairWitness(block)
	}); allocs != 0 {
		t.Errorf("PairWitness: %.1f allocs per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		auditSink = seqio.AuditImage(img, maxReadLen, len(set.Pairs))
	}); allocs != 0 {
		t.Errorf("clean AuditImage: %.1f allocs per call, want 0", allocs)
	}
}

var sinkU32 uint32

// FuzzAuditImage runs the readback audit on arbitrary bytes, MAX_READ_LEN
// values and pair counts. The audit reads device memory that faults may
// have corrupted, so it must never panic, and every index it returns must
// name a whole pair block inside the image whose stored witness is present
// and wrong, in ascending order.
func FuzzAuditImage(f *testing.F) {
	set := seqgen.New(5, 7).Set(seqgen.Profile{Name: "fuzz", Length: 40, ErrorRate: 0.1, NumPairs: 3})
	img, err := set.BuildImage()
	if err != nil {
		f.Fatal(err)
	}
	maxReadLen := set.EffectiveMaxReadLen()
	flipped := append([]byte(nil), img...)
	flipped[len(flipped)-1] ^= 1
	f.Add(img, maxReadLen, len(set.Pairs))
	f.Add(flipped, maxReadLen, len(set.Pairs))
	f.Add(flipped[:len(flipped)-1], maxReadLen, len(set.Pairs))
	f.Add(img, maxReadLen, len(set.Pairs)+5)
	f.Add(img, 0, math.MaxInt)
	f.Add(img, -32, 1)
	f.Add(img, math.MaxInt, 1)
	f.Add([]byte{}, 16, 1)
	f.Fuzz(func(t *testing.T, img []byte, maxReadLen, numPairs int) {
		bad := seqio.AuditImage(img, maxReadLen, numPairs)
		stride := seqio.PairSections(maxReadLen) * seqio.SectionBytes
		for j, i := range bad {
			if i < 0 || i >= numPairs || (j > 0 && i <= bad[j-1]) {
				t.Fatalf("audit returned %v for %d pairs", bad, numPairs)
			}
			if stride <= 0 || i >= len(img)/stride {
				t.Fatalf("pair %d flagged but its block is not inside the %d-byte image (stride %d)", i, len(img), stride)
			}
			block := img[i*stride : (i+1)*stride]
			want := binary.LittleEndian.Uint32(block[seqio.WitnessOff : seqio.WitnessOff+4])
			if want == 0 || seqio.PairWitness(block) == want {
				t.Fatalf("pair %d flagged with a witness that is absent or matches", i)
			}
		}
	})
}
