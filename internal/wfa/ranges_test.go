package wfa

import (
	"testing"

	"repro/internal/align"
)

func TestRangeTrackerBasics(t *testing.T) {
	// Penalties (4,6,2) on a 100x100 pair: score 4 creates M~ only
	// (mismatch), scores below 4 are empty; score 8 is the first with I~/D~.
	tr := NewRangeTracker(align.DefaultPenalties, 100, 100, 0)
	type want struct{ iEmpty, dEmpty, mEmpty bool }
	wants := map[int]want{
		1: {true, true, true},
		2: {true, true, true},
		3: {true, true, true},
		4: {true, true, false},
		5: {true, true, true},
		6: {true, true, true},
		7: {true, true, true},
		8: {false, false, false},
	}
	var iR, dR, mR Range
	for s := 1; s <= 8; s++ {
		iR, dR, mR = tr.Extend(s)
		w := wants[s]
		if iR.Empty() != w.iEmpty || dR.Empty() != w.dEmpty || mR.Empty() != w.mEmpty {
			t.Fatalf("s=%d: I empty=%v D empty=%v M empty=%v, want %+v", s, iR.Empty(), dR.Empty(), mR.Empty(), w)
		}
	}
	// At s=8, I~ spans k=1 only (from M~(0)); M~ spans [-1, 1].
	if iR != (Range{1, 1}) || dR != (Range{-1, -1}) || mR != (Range{-1, 1}) || tr.MRange(8) != mR {
		t.Fatalf("s=8 ranges: I=%+v D=%+v M=%+v recorded M=%+v", iR, dR, mR, tr.MRange(8))
	}
	// Out-of-order visits panic.
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Extend did not panic")
		}
	}()
	tr.Extend(100)
}
