package wfa

import (
	"math/rand/v2"
	"testing"

	"repro/internal/align"
	"repro/internal/seqgen"
	"repro/internal/swg"
)

func mustAlign(t *testing.T, a, b []byte, p align.Penalties) (align.Result, Stats) {
	t.Helper()
	res, st, err := Align(a, b, p, Options{WithCIGAR: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("WFA failed on a=%q b=%q", a, b)
	}
	return res, st
}

func checkAgainstSWG(t *testing.T, a, b []byte, p align.Penalties) {
	t.Helper()
	res, _ := mustAlign(t, a, b, p)
	ref, _ := swg.Align(a, b, p)
	if res.Score != ref.Score {
		t.Fatalf("score mismatch: WFA=%d SWG=%d for a=%q b=%q %v", res.Score, ref.Score, a, b, p)
	}
	if err := res.CIGAR.Validate(a, b); err != nil {
		t.Fatalf("WFA CIGAR invalid: %v (cigar=%s)", err, res.CIGAR)
	}
	if got := res.CIGAR.Score(p); got != res.Score {
		t.Fatalf("CIGAR rescore %d != reported %d (cigar=%s)", got, res.Score, res.CIGAR)
	}
	if err := ref.CIGAR.Validate(a, b); err != nil {
		t.Fatalf("SWG CIGAR invalid: %v", err)
	}
	if got := ref.CIGAR.Score(p); got != ref.Score {
		t.Fatalf("SWG CIGAR rescore %d != reported %d", got, ref.Score)
	}
}

func TestKnownAlignments(t *testing.T) {
	p := align.DefaultPenalties
	cases := []struct {
		a, b  string
		score int
	}{
		{"", "", 0},
		{"A", "A", 0},
		{"A", "C", 4},
		{"ACGT", "ACGT", 0},
		{"ACGT", "ACTT", 4},
		{"ACGT", "AGT", 8},   // one deletion: o+e = 8
		{"AGT", "ACGT", 8},   // one insertion
		{"ACGT", "AT", 10},   // gap of 2: 6 + 2*2
		{"", "ACG", 12},      // pure insertion run: 6 + 3*2
		{"ACG", "", 12},      // pure deletion run
		{"AAAA", "TTTT", 16}, // all mismatch
		{"GATTACA", "GATCACA", 4},
	}
	for _, tc := range cases {
		a, b := []byte(tc.a), []byte(tc.b)
		res, _ := mustAlign(t, a, b, p)
		ref, _ := swg.Align(a, b, p)
		if res.Score != ref.Score {
			t.Errorf("a=%q b=%q: WFA=%d SWG=%d", tc.a, tc.b, res.Score, ref.Score)
		}
		if res.Score != tc.score {
			t.Errorf("a=%q b=%q: got score %d want %d", tc.a, tc.b, res.Score, tc.score)
		}
		if err := res.CIGAR.Validate(a, b); err != nil {
			t.Errorf("a=%q b=%q: %v", tc.a, tc.b, err)
		}
	}
	// A read outside the accelerator alphabet ('U', lowercase, 'N') is
	// unsupported in the software tier as on the accelerator: the pair fails
	// with zero Stats.
	for _, b := range []string{"GCATGCU", "gattaca", "GATNACA"} {
		for _, withCIGAR := range []bool{false, true} {
			al, err := New(p, Options{WithCIGAR: withCIGAR})
			if err != nil {
				t.Fatal(err)
			}
			if res := al.Run([]byte("GATTACA"), []byte(b)); res.Success || al.Stats != (Stats{}) {
				t.Errorf("b=%q cigar=%v: %+v %+v, want an unsupported pair", b, withCIGAR, res, al.Stats)
			}
			if res := al.Run([]byte(b), []byte("GATTACA")); res.Success || al.Stats != (Stats{}) {
				t.Errorf("a=%q cigar=%v: %+v %+v, want an unsupported pair", b, withCIGAR, res, al.Stats)
			}
		}
	}
}

func TestExactScoreSmallCases(t *testing.T) {
	// Enumerated tiny cases against SWG for several penalty sets.
	pens := []align.Penalties{
		align.DefaultPenalties,
		{Mismatch: 1, GapOpen: 0, GapExtend: 1}, // edit-distance-like
		{Mismatch: 2, GapOpen: 3, GapExtend: 1},
		{Mismatch: 5, GapOpen: 2, GapExtend: 3},
		{Mismatch: 3, GapOpen: 9, GapExtend: 1},
	}
	alpha := []byte("ACGT")
	rng := rand.New(rand.NewPCG(7, 11))
	seq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = alpha[rng.IntN(4)]
		}
		return s
	}
	for _, p := range pens {
		for trial := 0; trial < 60; trial++ {
			a := seq(rng.IntN(12))
			b := seq(rng.IntN(12))
			checkAgainstSWG(t, a, b, p)
		}
	}
}

func TestRandomPairsAgainstSWG(t *testing.T) {
	g := seqgen.New(42, 43)
	for trial := 0; trial < 40; trial++ {
		length := 20 + trial*7
		rate := 0.02 + 0.01*float64(trial%12)
		pair := g.Pair(uint32(trial), length, rate)
		checkAgainstSWG(t, pair.A, pair.B, align.DefaultPenalties)
	}
}

func TestLongerPairsScoreOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("long pairs in -short mode")
	}
	g := seqgen.New(1, 2)
	for _, length := range []int{500, 1000, 2000} {
		for _, rate := range []float64{0.05, 0.10} {
			pair := g.Pair(0, length, rate)
			res, _, _ := Align(pair.A, pair.B, align.DefaultPenalties, Options{})
			if !res.Success {
				t.Fatalf("len=%d rate=%v: WFA failed", length, rate)
			}
			ref, _ := swg.Score(pair.A, pair.B, align.DefaultPenalties)
			if res.Score != ref {
				t.Fatalf("len=%d rate=%v: WFA=%d SWG=%d", length, rate, res.Score, ref)
			}
		}
	}
}

func TestScoreOnlyMatchesWithCIGAR(t *testing.T) {
	g := seqgen.New(9, 9)
	for trial := 0; trial < 20; trial++ {
		pair := g.Pair(0, 50+trial*13, 0.08)
		full, _, _ := Align(pair.A, pair.B, align.DefaultPenalties, Options{WithCIGAR: true})
		lean, _, _ := Align(pair.A, pair.B, align.DefaultPenalties, Options{})
		if full.Score != lean.Score {
			t.Fatalf("trial %d: full=%d lean=%d", trial, full.Score, lean.Score)
		}
	}
}

func TestMaxScoreAbort(t *testing.T) {
	a := []byte("AAAAAAAAAA")
	b := []byte("TTTTTTTTTT")
	// True score is 40 (10 mismatches); cap below it.
	res, _, _ := Align(a, b, align.DefaultPenalties, Options{MaxScore: 20})
	if res.Success {
		t.Fatalf("expected failure under MaxScore=20, got score %d", res.Score)
	}
	res, _, _ = Align(a, b, align.DefaultPenalties, Options{MaxScore: 40})
	if !res.Success || res.Score != 40 {
		t.Fatalf("expected success with score 40, got %+v", res)
	}
}

func TestMaxKClamp(t *testing.T) {
	// Equation 6: Score_max = 2*k_max + x, with x = 4 here. An alignment
	// needing a diagonal beyond k_max must fail; one within it must succeed.
	g := seqgen.New(3, 4)
	pair := g.Pair(0, 200, 0.05)
	ref, _ := swg.Score(pair.A, pair.B, align.DefaultPenalties)

	res, _, _ := Align(pair.A, pair.B, align.DefaultPenalties, Options{MaxK: (ref - 4 + 1) / 2})
	if !res.Success || res.Score != ref {
		t.Fatalf("MaxK large enough: got %+v want score %d", res, ref)
	}
	// A pure-gap alignment far off-diagonal: query empty, text 30 bases
	// needs k up to 30.
	res, _, _ = Align(nil, []byte("ACGTACGTACGTACGTACGTACGTACGTAC"), align.DefaultPenalties, Options{MaxK: 5})
	if res.Success {
		t.Fatalf("expected failure with MaxK=5 and 30-diagonal goal")
	}
}

func TestStatsAreCounted(t *testing.T) {
	g := seqgen.New(5, 6)
	pair := g.Pair(0, 300, 0.05)
	res, st, _ := Align(pair.A, pair.B, align.DefaultPenalties, Options{})
	if !res.Success {
		t.Fatal("alignment failed")
	}
	if st.CellsComputed == 0 || st.CellsExtended == 0 || st.BasesCompared == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
	if st.BasesCompared < int64(len(pair.B))/2 {
		t.Fatalf("BasesCompared=%d implausibly low for len %d", st.BasesCompared, len(pair.B))
	}
	if st.MaxWavefront <= 0 || st.SumWavefront < int64(st.MaxWavefront) {
		t.Fatalf("wavefront stats inconsistent: %+v", st)
	}
	if st.Score != res.Score {
		t.Fatalf("stats score %d != result score %d", st.Score, res.Score)
	}
}

func TestIdenticalSequencesScoreZero(t *testing.T) {
	g := seqgen.New(10, 20)
	s := g.RandomSequence(5000)
	res, st, _ := Align(s, s, align.DefaultPenalties, Options{WithCIGAR: true})
	if !res.Success || res.Score != 0 {
		t.Fatalf("identical sequences: %+v", res)
	}
	if len(res.CIGAR) != 5000 {
		t.Fatalf("CIGAR length %d want 5000", len(res.CIGAR))
	}
	for _, op := range res.CIGAR {
		if op != align.OpMatch {
			t.Fatalf("non-match op %c on identical sequences", op)
		}
	}
	if st.ScoreSteps != 0 {
		t.Fatalf("identical alignment should finish at s=0, took %d steps", st.ScoreSteps)
	}
}

func TestAsymmetricLengths(t *testing.T) {
	p := align.DefaultPenalties
	checkAgainstSWG(t, []byte("ACGTACGTACGTACGT"), []byte("ACG"), p)
	checkAgainstSWG(t, []byte("ACG"), []byte("ACGTACGTACGTACGT"), p)
	checkAgainstSWG(t, []byte("A"), []byte("TTTTTTTT"), p)
}

// Malformed penalties can arrive from user input through the driver API;
// they must surface as errors, never crash the process.
func TestInvalidPenaltiesReturnError(t *testing.T) {
	bad := align.Penalties{Mismatch: 0, GapOpen: 6, GapExtend: 2}
	if _, err := New(bad, Options{}); err == nil {
		t.Fatal("New accepted invalid penalties")
	}
	if _, _, err := Align([]byte("ACGT"), []byte("ACGT"), bad, Options{}); err == nil {
		t.Fatal("Align accepted invalid penalties")
	}
	if _, err := AlignBatch(batchPairs(2), bad, Options{}, 2); err == nil {
		t.Fatal("AlignBatch accepted invalid penalties")
	}
}
