package swg

import (
	"math/rand/v2"
	"testing"

	"repro/internal/align"
	"repro/internal/seqgen"
)

func TestKnownScores(t *testing.T) {
	p := align.DefaultPenalties
	cases := []struct {
		a, b  string
		score int
	}{
		{"", "", 0},
		{"ACGT", "ACGT", 0},
		{"ACGT", "ACTT", 4},
		{"ACGT", "AGT", 8},
		{"ACGT", "AT", 10},
		{"AAAA", "TTTT", 16},
		{"", "ACG", 12},
	}
	for _, tc := range cases {
		res, _ := Align([]byte(tc.a), []byte(tc.b), p)
		if res.Score != tc.score {
			t.Errorf("Align(%q,%q)=%d want %d", tc.a, tc.b, res.Score, tc.score)
		}
		sc, _ := Score([]byte(tc.a), []byte(tc.b), p)
		if sc != tc.score {
			t.Errorf("Score(%q,%q)=%d want %d", tc.a, tc.b, sc, tc.score)
		}
		if err := res.CIGAR.Validate([]byte(tc.a), []byte(tc.b)); err != nil {
			t.Errorf("Align(%q,%q): %v", tc.a, tc.b, err)
		}
		if got := res.CIGAR.Score(p); got != tc.score {
			t.Errorf("Align(%q,%q): CIGAR rescore %d", tc.a, tc.b, got)
		}
	}
}

// TestPaperExample reproduces Figure 1 of the paper: sequences with score 24
// under penalties (4,6,2). The figure aligns two sequences whose optimal
// transcript contains mismatches only.
func TestPaperFigure1StyleExample(t *testing.T) {
	// Build a pair with exactly 2 mismatches and no indels.
	a := []byte("ACTCGACTCG")
	b := []byte("AGTCGTCTCG") // positions 1 and 5 differ
	res, _ := Align(a, b, align.DefaultPenalties)
	m, x, ins, del := res.CIGAR.Counts()
	if x != 2 || ins != 0 || del != 0 || m != 8 {
		t.Fatalf("counts M=%d X=%d I=%d D=%d", m, x, ins, del)
	}
	if res.Score != 8 {
		t.Fatalf("score %d want 8", res.Score)
	}
}

func TestAffineBeatsRepeatedOpens(t *testing.T) {
	// A 4-base gap must be scored as one opening: o + 4e = 14, not 4*(o+e).
	a := []byte("ACGTACGT")
	b := []byte("ACGT")
	res, _ := Align(a, b, align.DefaultPenalties)
	if res.Score != 6+4*2 {
		t.Fatalf("score %d want %d", res.Score, 6+4*2)
	}
	openings, bases := res.CIGAR.GapRuns()
	if openings != 1 || bases != 4 {
		t.Fatalf("gap runs (%d,%d) want (1,4)", openings, bases)
	}
}

func TestScoreMatchesAlign(t *testing.T) {
	g := seqgen.New(100, 200)
	for trial := 0; trial < 30; trial++ {
		pair := g.Pair(0, 30+trial*11, 0.1)
		res, _ := Align(pair.A, pair.B, align.DefaultPenalties)
		sc, _ := Score(pair.A, pair.B, align.DefaultPenalties)
		if res.Score != sc {
			t.Fatalf("trial %d: Align=%d Score=%d", trial, res.Score, sc)
		}
	}
}

func TestStatsCells(t *testing.T) {
	a := make([]byte, 17)
	b := make([]byte, 23)
	for i := range a {
		a[i] = 'A'
	}
	for i := range b {
		b[i] = 'A'
	}
	_, st := Align(a, b, align.DefaultPenalties)
	if st.CellsComputed != int64(len(a)*len(b)) {
		t.Fatalf("CellsComputed=%d want %d", st.CellsComputed, len(a)*len(b))
	}
}

func TestRandomPenaltiesBruteForceTiny(t *testing.T) {
	// Cross-check SWG against an exhaustive alignment search on tiny inputs.
	rng := rand.New(rand.NewPCG(3, 9))
	alpha := []byte("ACGT")
	seq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = alpha[rng.IntN(3)] // small alphabet -> more ties
		}
		return s
	}
	check := func(p align.Penalties) {
		t.Helper()
		a, b := seq(rng.IntN(7)), seq(rng.IntN(7))
		got, _ := Score(a, b, p)
		want := bruteForceScore(a, b, p)
		if got != want {
			t.Fatalf("SWG=%d brute=%d for a=%q b=%q %v", got, want, a, b, p)
		}
	}
	for trial := 0; trial < 40; trial++ {
		check(align.Penalties{
			Mismatch:  1 + rng.IntN(5),
			GapOpen:   rng.IntN(5),
			GapExtend: 1 + rng.IntN(3),
		})
	}
	// GapOpen 0 degenerates gap-affine to the gap-linear model of Equation 1;
	// it is pinned here so the case never depends on the PCG drawing a zero.
	for _, p := range []align.Penalties{
		{Mismatch: 3, GapOpen: 0, GapExtend: 2},
		{Mismatch: 1, GapOpen: 0, GapExtend: 1},
		{Mismatch: 4, GapOpen: 0, GapExtend: 3},
	} {
		for trial := 0; trial < 10; trial++ {
			check(p)
		}
	}
}

// bruteForceScore enumerates all alignments recursively (exponential; tiny
// inputs only), tracking whether the previous op was an insertion/deletion
// for affine gap accounting.
func bruteForceScore(a, b []byte, p align.Penalties) int {
	const none, ins, del = 0, 1, 2
	var rec func(i, j, prev int) int
	var memo map[[3]int]int
	memo = make(map[[3]int]int)
	rec = func(i, j, prev int) int {
		key := [3]int{i, j, prev}
		if v, ok := memo[key]; ok {
			return v
		}
		if i == len(a) && j == len(b) {
			return 0
		}
		best := 1 << 30
		if i < len(a) && j < len(b) {
			c := 0
			if a[i] != b[j] {
				c = p.Mismatch
			}
			if v := c + rec(i+1, j+1, none); v < best {
				best = v
			}
		}
		if j < len(b) { // insertion
			c := p.GapExtend
			if prev != ins {
				c += p.GapOpen
			}
			if v := c + rec(i, j+1, ins); v < best {
				best = v
			}
		}
		if i < len(a) { // deletion
			c := p.GapExtend
			if prev != del {
				c += p.GapOpen
			}
			if v := c + rec(i+1, j, del); v < best {
				best = v
			}
		}
		memo[key] = best
		return best
	}
	return rec(0, 0, none)
}
