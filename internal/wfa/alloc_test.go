package wfa

import (
	"testing"

	"repro/internal/align"
	"repro/internal/seqgen"
	"repro/internal/seqio"
)

// allocProfile1K is the 1K-read 5% error profile the benchmarks use,
// pre-generated so pair synthesis stays outside the measured regions.
func allocProfile1K(t *testing.T, n int) []seqio.Pair {
	t.Helper()
	g := seqgen.New(7, 9)
	pairs := make([]seqio.Pair, n)
	for i := range pairs {
		pairs[i] = g.Pair(uint32(i+1), 1000, 0.05)
	}
	return pairs
}

// TestAlignerRunScoreOnlyZeroAlloc pins the steady-state allocation budget of
// the score-only (ring buffer) mode: after one warm-up sweep has grown the
// ring, the wavefront pool and the range clamps, re-aligning the same
// workload must not allocate at all — there is no per-pair result buffer in
// score-only mode, so the amortized budget is exactly zero.
func TestAlignerRunScoreOnlyZeroAlloc(t *testing.T) {
	pairs := allocProfile1K(t, 16)
	al, err := New(align.DefaultPenalties, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		for _, p := range pairs {
			if !al.Run(p.A, p.B).Success {
				t.Fatal("alignment failed")
			}
		}
	}
	// Warm-up: repeat the sweep until the pool's high-water growth has
	// quiesced (each pooled wavefront reallocates at most once after the
	// first sweep, so this converges in a handful of rounds).
	warmed := false
	for i := 0; i < 16 && !warmed; i++ {
		warmed = testing.AllocsPerRun(1, sweep) == 0
	}
	if !warmed {
		t.Fatal("pool never quiesced: warm-up sweeps kept allocating")
	}
	allocs := testing.AllocsPerRun(4, sweep)
	if allocs != 0 {
		t.Errorf("score-only Run allocated %v objects per %d-pair sweep, want 0", allocs, len(pairs))
	}
}

// TestAlignerRunCIGARAmortizedAllocs pins the amortized per-pair allocation
// budget of the full-backtrace mode on the 1K-read profile. Each pair
// legitimately allocates its caller-owned CIGAR (the ForwardPass result
// buffer, waived in backtrace.go); everything else — wavefront store, pool,
// backtrace scratch — must amortize to zero after warm-up. The bound is
// deliberately a hard ratchet: raising it needs a justification, like the
// vet baseline.
func TestAlignerRunCIGARAmortizedAllocs(t *testing.T) {
	pairs := allocProfile1K(t, 16)
	al, err := New(align.DefaultPenalties, Options{WithCIGAR: true})
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		for _, p := range pairs {
			res := al.Run(p.A, p.B)
			if !res.Success || len(res.CIGAR) == 0 {
				t.Fatal("alignment failed")
			}
		}
	}
	// Warm-up until only the per-pair result buffers remain.
	budget := float64(len(pairs)) // one CIGAR buffer per pair
	warmed := false
	for i := 0; i < 16 && !warmed; i++ {
		warmed = testing.AllocsPerRun(1, sweep) <= budget
	}
	if !warmed {
		t.Fatal("pool never quiesced: warm-up sweeps kept allocating beyond the result buffers")
	}
	perPair := testing.AllocsPerRun(4, sweep) / float64(len(pairs))
	const maxPerPair = 1.0 // the CIGAR result buffer, nothing else
	if perPair > maxPerPair {
		t.Errorf("CIGAR Run allocated %.2f objects/pair amortized, want <= %v", perPair, maxPerPair)
	}
}
