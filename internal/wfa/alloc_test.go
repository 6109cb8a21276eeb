package wfa

import (
	"runtime"
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

// Mallocs returns the exact number of heap allocations sweeps calls of f
// make. testing.AllocsPerRun would return the truncated average, under which
// fewer allocations than sweeps read as zero. It is exported for the
// external wfa_test package.
func Mallocs(sweeps int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range sweeps {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
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
		warmed = Mallocs(1, sweep) == 0
	}
	if !warmed {
		t.Fatal("pool never quiesced: warm-up sweeps kept allocating")
	}
	if allocs := Mallocs(4, sweep); allocs != 0 {
		t.Errorf("score-only Run allocated %d objects over 4 %d-pair sweeps, want 0", allocs, len(pairs))
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
	budget := uint64(len(pairs)) // one CIGAR buffer per pair, nothing else
	warmed := false
	for i := 0; i < 16 && !warmed; i++ {
		warmed = Mallocs(1, sweep) <= budget
	}
	if !warmed {
		t.Fatal("pool never quiesced: warm-up sweeps kept allocating beyond the result buffers")
	}
	if allocs := Mallocs(4, sweep); allocs > 4*budget {
		t.Errorf("CIGAR Run allocated %d objects over 4 %d-pair sweeps, want <= %d", allocs, len(pairs), 4*budget)
	}
}

// TestCIGARModeLiveHeap bounds what a CIGAR-mode Aligner keeps alive: the
// wavefront window plus one origin byte per M~ diagonal per score, not every
// wavefront of every score. A cold Aligner runs one seeded pair of unrelated
// 1 kbp reads (score ~2300, ~1.3M M~ cells) and is kept alive; the live heap
// it adds must stay under 4 MiB, where retaining every wavefront took
// about 20 MiB. It measures the whole process heap, so it must not run in
// parallel with other tests.
func TestCIGARModeLiveHeap(t *testing.T) {
	g := seqgen.New(11, 12)
	a, b := g.RandomSequence(1000), g.RandomSequence(1000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	al, err := New(align.DefaultPenalties, Options{WithCIGAR: true})
	if err != nil {
		t.Fatal(err)
	}
	res := al.Run(a, b)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(al)
	if !res.Success || al.Stats.SumWavefront < 1_000_000 {
		t.Fatalf("pair too easy to bound anything: %+v, %d M~ cells", res.Success, al.Stats.SumWavefront)
	}
	const limit = 4 << 20
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live > limit {
		t.Errorf("CIGAR-mode Aligner holds %.1f MiB after one %d-cell run, want <= %d MiB",
			float64(live)/(1<<20), al.Stats.SumWavefront, limit>>20)
	}
}
