package soc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/seqgen"
	"repro/internal/seqio"
)

// TestSoftwareAlignerMatchesOneShot reuses one SoftwareAligner across
// interleaved score-only and CIGAR calls on the edge cases of the software
// semantics — empty and one-base reads, reads at and one past the hardware
// cap, N bases, pairs beyond k_max — and requires its Result and WFAStats to
// equal a fresh one-shot SoftwareAlign on every pair.
func TestSoftwareAlignerMatchesOneShot(t *testing.T) {
	cfg := edgeCaseConfig()
	pairs := edgeCasePairs(cfg)
	sa := NewSoftwareAligner(cfg)
	for round := 0; round < 2; round++ {
		for i, p := range pairs {
			for _, withCIGAR := range []bool{i%2 == 0, i%2 != 0} {
				got, gotStats := sa.Align(p, withCIGAR)
				want, wantStats := SoftwareAlign(cfg, p, withCIGAR)
				if !reflect.DeepEqual(got, want) || gotStats != wantStats {
					t.Fatalf("round %d pair %d cigar=%v: reused = %+v %+v, one-shot = %+v %+v",
						round, i, withCIGAR, got, gotStats, want, wantStats)
				}
			}
		}
	}
	// The edge cases must exercise both outcomes and both failure causes.
	for _, c := range []struct {
		i    int
		want bool
	}{{0, true}, {5, true}, {7, false}, {9, false}, {11, false}, {12, false}, {15, false}} {
		if res, _ := sa.Align(pairs[c.i], false); res.Success != c.want {
			t.Errorf("pair %d: Success = %v, want %v", c.i, res.Success, c.want)
		}
	}
}

// edgeCaseConfig is the chip configuration shrunk so that the edge cases can
// reach the read-length cap and k_max cheaply.
func edgeCaseConfig() core.Config {
	cfg := core.ChipConfig()
	cfg.MaxReadLenCap = 256
	cfg.KMax = 16
	return cfg
}

// edgeCasePairs are the edge cases of the software semantics under cfg:
// empty and one-base reads, reads at and one past the hardware cap, N and
// lowercase bases, pairs beyond k_max and past Equation 6's bound.
func edgeCasePairs(cfg core.Config) []seqio.Pair {
	g := seqgen.New(3, 14)
	rnd := func(n int) []byte { return g.RandomSequence(n) }
	capRead := rnd(cfg.MaxReadLenCap)
	return []seqio.Pair{
		{A: nil, B: nil},
		{A: nil, B: []byte("ACGT")},
		{A: []byte("A"), B: []byte("A")},
		{A: []byte("A"), B: []byte("C")},
		{A: []byte("G"), B: nil},
		{A: capRead, B: capRead},
		g.Pair(0, cfg.MaxReadLenCap, 0.03),
		{A: rnd(cfg.MaxReadLenCap + 1), B: rnd(cfg.MaxReadLenCap)},
		{A: rnd(cfg.MaxReadLenCap), B: rnd(cfg.MaxReadLenCap + 1)},
		{A: []byte("ACGNT"), B: []byte("ACGAT")},
		{A: []byte("ACGT"), B: []byte("NNNN")},
		{A: rnd(40), B: rnd(40 + cfg.KMax + 1)}, // final diagonal outside k_max
		{A: rnd(120), B: rnd(120)},              // score past Equation 6's bound
		g.Pair(0, 200, 0.10),
		g.Pair(0, 100, 0.05),
		{A: []byte("acgtacgt"), B: []byte("ACGTTCGT")},
	}
}

// softwareCIGARDigest is the SHA-256 of "score success CIGAR" lines over
// TestSoftwareCIGARDigest's 360 pairs. It pins the software tier's CIGARs
// byte for byte: a change to the step kernel or the backtrace that moves any
// of them must fail here.
const softwareCIGARDigest = "03db0ffb868611d97b4fe0cd740c4ba2b08f4d166746568a18235dfee5edda30"

// TestSoftwareCIGARDigest hashes SoftwareAligner CIGAR-mode results over the
// six seqgen paper sets (40/40/10/10/2/2 pairs, chip configuration) and the
// 16 edge cases (edgeCaseConfig), under three penalty sets: the paper's
// (4,6,2), a cheap (2,3,1) and a zero gap-open (6,0,3). 120 pairs per set,
// one reused aligner per penalty set and configuration.
func TestSoftwareCIGARDigest(t *testing.T) {
	h := sha256.New()
	for _, p := range []align.Penalties{{Mismatch: 4, GapOpen: 6, GapExtend: 2}, {Mismatch: 2, GapOpen: 3, GapExtend: 1}, {Mismatch: 6, GapOpen: 0, GapExtend: 3}} {
		chip := core.ChipConfig()
		chip.Penalties = p
		sa := NewSoftwareAligner(chip)
		for i, prof := range seqgen.PaperSets(0) {
			prof.NumPairs = []int{40, 40, 10, 10, 2, 2}[i]
			for _, pair := range seqgen.SetFor(prof).Pairs {
				res, _ := sa.Align(pair, true)
				fmt.Fprintf(h, "%d %v %s\n", res.Score, res.Success, res.CIGAR)
			}
		}
		edge := edgeCaseConfig()
		edge.Penalties = p
		sa = NewSoftwareAligner(edge)
		for _, pair := range edgeCasePairs(edge) {
			res, _ := sa.Align(pair, true)
			fmt.Fprintf(h, "%d %v %s\n", res.Score, res.Success, res.CIGAR)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != softwareCIGARDigest {
		t.Errorf("software CIGAR digest = %s, want %s", got, softwareCIGARDigest)
	}
}

// TestSoftwareAlignerInvalidPenalties: penalties the WFA cannot run fail
// every pair instead of panicking, on the reused and the one-shot path.
func TestSoftwareAlignerInvalidPenalties(t *testing.T) {
	cfg := core.ChipConfig()
	cfg.Penalties = align.Penalties{Mismatch: 0, GapOpen: 1, GapExtend: 1}
	p := seqio.Pair{A: []byte("ACGT"), B: []byte("ACCT")}
	sa := NewSoftwareAligner(cfg)
	for _, withCIGAR := range []bool{false, true, false} {
		if res, st := sa.Align(p, withCIGAR); res.Success || st.ScoreSteps != 0 {
			t.Errorf("reused cigar=%v: %+v %+v, want a failed pair", withCIGAR, res, st)
		}
		if res, _ := SoftwareAlign(cfg, p, withCIGAR); res.Success {
			t.Errorf("one-shot cigar=%v: %+v, want a failed pair", withCIGAR, res)
		}
	}
}

// TestZeroFromAfterJob runs a real resilient job and checks the dirty
// watermark end to end: the output stream raised it past the output
// address, everything past the stream the device reported reads as zero,
// and zeroFrom leaves the whole tail zero with the mark back at the output
// address.
func TestZeroFromAfterJob(t *testing.T) {
	s, err := New(testConfig(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, backtrace := range []bool{false, true} {
		set := testSet(6, 150, 0.05)
		rep, err := s.RunResilient(set, ResilientOptions{Backtrace: backtrace})
		if err != nil {
			t.Fatal(err)
		}
		if rep.HardwarePairs != len(set.Pairs) {
			t.Fatalf("backtrace=%v: %d of %d pairs from hardware", backtrace, rep.HardwarePairs, len(set.Pairs))
		}
		img, err := set.BuildImage()
		if err != nil {
			t.Fatal(err)
		}
		out := int64((inputBase + len(img) + 15) &^ 15)
		count, err := s.Driver.OutCount()
		if err != nil {
			t.Fatal(err)
		}
		end := out + int64(count)*16
		if mark := s.Memory.Watermark(); mark < end {
			t.Fatalf("backtrace=%v: watermark %d below the end of the output stream %d", backtrace, mark, end)
		}
		size := int64(s.Memory.Size())
		if tail := s.Memory.View(end, int(size-end)); !allZero(tail) {
			t.Fatalf("backtrace=%v: bytes past the reported output stream are not zero", backtrace)
		}
		s.zeroFrom(out)
		if mark := s.Memory.Watermark(); mark != out {
			t.Fatalf("backtrace=%v: watermark %d after zeroFrom, want the output address %d", backtrace, mark, out)
		}
		if !allZero(s.Memory.View(out, int(size-out))) {
			t.Fatalf("backtrace=%v: zeroFrom left dirty bytes in the tail", backtrace)
		}
		if !bytes.Equal(s.Memory.View(inputBase, len(img)), img) {
			t.Fatalf("backtrace=%v: zeroFrom touched the input image", backtrace)
		}
	}
}

// TestDeviceMemoryCostsWhatABatchWrites pins the lazily backed main memory
// end to end: a SoC with serve's 8 MiB device memory plus one 64-pair 100 bp
// resilient batch allocates a fraction of that memory, because only the
// bytes the batch writes are ever backed. The batch writes 20 KiB
// score-only and 77 KiB with backtrace. The cases measure about 0.19 MB
// score-only and 0.37 MB with backtrace, whose CPU-side decode reuses the
// SoC's decoder and allocates little beyond the CIGARs, and whose device
// packs origin blocks into a reused arena; each bound leaves about a third
// of headroom.
func TestDeviceMemoryCostsWhatABatchWrites(t *testing.T) {
	for _, c := range []struct {
		backtrace bool
		limit     uint64
	}{{false, 256 << 10}, {true, 512 << 10}} {
		set := testSet(64, 100, 0.05)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := New(core.ChipConfig(), 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunResilient(set, ResilientOptions{Backtrace: c.backtrace})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if rep.HardwarePairs != len(set.Pairs) {
			t.Fatalf("backtrace=%v: %d of %d pairs from hardware", c.backtrace, rep.HardwarePairs, len(set.Pairs))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= c.limit {
			t.Errorf("backtrace=%v: New plus one batch allocated %d bytes, want under %d", c.backtrace, alloc, c.limit)
		}
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
