package wfa

import (
	"strings"
	"testing"

	"repro/internal/align"
)

// TestBackStepTransitions pins the tag table of the shared backtrace: every
// (component, tag) transition BackStep accepts, with its op, score delta,
// diagonal step and next component, and every tag it rejects. The penalties
// are pairwise distinct so a wrong delta cannot pass by coincidence.
func TestBackStepTransitions(t *testing.T) {
	p := align.Penalties{Mismatch: 5, GapOpen: 7, GapExtend: 3}
	const oe, e = 10, 3
	sub := BackOp{align.OpMismatch, true}
	insM, delM := BackOp{align.OpInsert, true}, BackOp{align.OpDelete, true}
	insG, delG := BackOp{Op: align.OpInsert}, BackOp{Op: align.OpDelete}
	for _, c := range []struct {
		comp   Component
		tag    uint8
		op     BackOp
		ds, dk int
		next   Component
	}{
		{CompM, MTagSub, sub, 5, 0, CompM},
		{CompM, MTagIOpen, insM, oe, -1, CompM},
		{CompM, MTagIExt, insM, e, -1, CompI},
		{CompM, MTagDOpen, delM, oe, 1, CompM},
		{CompM, MTagDExt, delM, e, 1, CompD},
		{CompI, GTagOpen, insG, oe, -1, CompM},
		{CompI, GTagExt, insG, e, -1, CompI},
		{CompD, GTagOpen, delG, oe, 1, CompM},
		{CompD, GTagExt, delG, e, 1, CompD},
	} {
		op, ds, dk, next, ok := BackStep(c.comp, c.tag, p)
		if !ok || op != c.op || ds != c.ds || dk != c.dk || next != c.next {
			t.Errorf("BackStep(%v, %d) = (%+v, %d, %d, %v, %v), want (%+v, %d, %d, %v, true)",
				c.comp, c.tag, op, ds, dk, next, ok, c.op, c.ds, c.dk, c.next)
		}
	}
	for _, c := range []struct {
		comp Component
		tag  uint8
	}{
		{CompM, MTagNone}, // the initial cell has no predecessor
		{CompM, 6},
		{CompM, 7},
		{CompI, 2},
		{CompD, 2},
		{numComponents, MTagSub},
	} {
		if op, _, _, _, ok := BackStep(c.comp, c.tag, p); ok {
			t.Errorf("BackStep(%v, %d) accepted the tag as %+v", c.comp, c.tag, op)
		}
	}
}

// TestOriginTagSelectsComponent checks that OriginTag reads back each
// component's field of a PackOrigin record, with or without Step's validity
// flags above it.
func TestOriginTagSelectsComponent(t *testing.T) {
	for _, flags := range []uint8{0, ^OriginMask} {
		for m := uint8(0); m < 8; m++ {
			for i := uint8(0); i < 2; i++ {
				for d := uint8(0); d < 2; d++ {
					o := PackOrigin(m, i, d) | flags
					if OriginTag(o, CompM) != m || OriginTag(o, CompI) != i || OriginTag(o, CompD) != d {
						t.Fatalf("origin %08b: tags (%d, %d, %d), want (%d, %d, %d)", o,
							OriginTag(o, CompM), OriginTag(o, CompI), OriginTag(o, CompD), m, i, d)
					}
				}
			}
		}
	}
}

// TestForwardPass covers the forward half of the backtrace on hand-built
// walks: where it re-inserts matches (the start, and after ops read from M~
// cells only) and every transcript it rejects. rev is in walk order, last
// difference first.
func TestForwardPass(t *testing.T) {
	x := BackOp{align.OpMismatch, true}
	xG := BackOp{Op: align.OpMismatch}
	insM, insG := BackOp{align.OpInsert, true}, BackOp{Op: align.OpInsert}
	delM := BackOp{align.OpDelete, true}
	for _, c := range []struct {
		name string
		a, b string
		rev  []BackOp
		want string // CIGAR, or a fragment of the error
		err  bool
	}{
		{name: "empty reads", want: ""},
		{name: "identical reads", a: "ACGT", b: "ACGT", want: "4M"},
		{name: "mismatch then extension", a: "ACGT", b: "AGGT", rev: []BackOp{x}, want: "1M1X2M"},
		{name: "gap run keeps its interior free of matches", a: "TA", b: "TCAA",
			rev: []BackOp{insM, insG}, want: "1M2I1M"},
		{name: "leading deletion", a: "GAC", b: "AC", rev: []BackOp{delM}, want: "1D2M"},
		{name: "empty a against b", b: "AC", rev: []BackOp{insM, insG}, want: "2I"},

		{name: "mismatch over equal bases", a: "TA", b: "GA", rev: []BackOp{x, xG},
			want: "mismatch over equal bases", err: true},
		{name: "mismatch past the end of a", a: "A", b: "AC", rev: []BackOp{x},
			want: "mismatch over equal bases or past a read's end at (1,1)", err: true},
		{name: "insertion past the end of b", a: "A", b: "A", rev: []BackOp{insM},
			want: "insertion past the end of b", err: true},
		{name: "deletion past the end of a", a: "A", b: "A", rev: []BackOp{delM},
			want: "deletion past the end of a", err: true},
		{name: "transcript ends short", a: "AC", b: "AG",
			want: "ends short of both reads' ends at (1,1) of (2,2)", err: true},
	} {
		cigar, err := ForwardPass([]byte(c.a), []byte(c.b), c.rev)
		switch {
		case c.err && err == nil:
			t.Errorf("%s: got CIGAR %s, want an error containing %q", c.name, cigar, c.want)
		case c.err && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q, want it to contain %q", c.name, err, c.want)
		case !c.err && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !c.err && cigar.String() != c.want:
			t.Errorf("%s: CIGAR %s, want %s", c.name, cigar, c.want)
		case !c.err && cap(cigar) != len(cigar):
			t.Errorf("%s: CIGAR buffer cap %d for %d ops, want an exact fit", c.name, cap(cigar), len(cigar))
		}
	}
}
