package wfa_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/seqgen"
	"repro/internal/seqio"
	"repro/internal/soc"
	"repro/internal/wfa"
)

// TestSoftwareAlignerAllocs pins, by an exact malloc count, the per-pair allocation budget of
// soc.SoftwareAligner, the reused front end of the Aligner pinned in
// alloc_test.go (it lives in this external test package because soc imports
// wfa). After warm-up a score-only pair allocates nothing and a CIGAR pair
// allocates at most its caller-owned CIGAR, with the two modes interleaved
// on one instance the way the resilient fallback and the serve software
// tier call it.
func TestSoftwareAlignerAllocs(t *testing.T) {
	g := seqgen.New(7, 9)
	pairs := make([]seqio.Pair, 16)
	for i := range pairs {
		pairs[i] = g.Pair(uint32(i+1), 1000, 0.05)
	}
	sa := soc.NewSoftwareAligner(core.ChipConfig())
	sweep := func(withCIGAR bool) func() {
		return func() {
			for _, p := range pairs {
				res, _ := sa.Align(p, withCIGAR)
				if !res.Success || (withCIGAR && len(res.CIGAR) == 0) {
					t.Fatal("alignment failed")
				}
			}
		}
	}
	score, cigar := sweep(false), sweep(true)
	budget := uint64(len(pairs)) // one CIGAR buffer per CIGAR pair
	warmed := false
	for i := 0; i < 16 && !warmed; i++ {
		warmed = wfa.Mallocs(1, score) == 0 && wfa.Mallocs(1, cigar) <= budget
	}
	if !warmed {
		t.Fatal("SoftwareAligner never quiesced: warm-up sweeps kept allocating")
	}
	if allocs := wfa.Mallocs(4, score); allocs != 0 {
		t.Errorf("score-only SoftwareAligner.Align allocated %d objects over 4 %d-pair sweeps, want 0", allocs, len(pairs))
	}
	if allocs := wfa.Mallocs(4, cigar); allocs > 4*budget {
		t.Errorf("CIGAR SoftwareAligner.Align allocated %d objects over 4 %d-pair sweeps, want <= %d", allocs, len(pairs), 4*budget)
	}
}
