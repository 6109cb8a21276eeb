package wfa

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/invariant"
)

// Options configures one WFA run.
type Options struct {
	// WithCIGAR retains all wavefronts and performs the backtrace. When
	// false only a sliding window of wavefronts is kept (O(n+s) memory)
	// and Result.CIGAR is nil. This mirrors the accelerator's
	// backtrace-enabled/disabled modes.
	WithCIGAR bool
	// MaxScore aborts the alignment once the score would exceed this bound,
	// returning Success=false — the accelerator's Equation 6 behaviour.
	// Zero means "no explicit bound" (a safe bound is derived from the
	// sequence lengths).
	MaxScore int
	// MaxK clamps the diagonal range to [-MaxK, MaxK], the hardware's k_max
	// design parameter (Section 4.3.1). Zero means unbounded.
	MaxK int
}

// Stats counts the algorithmic work of one alignment; the CPU cost model and
// the accelerator cycle model both consume these.
type Stats struct {
	Score          int   // final score (valid when Success)
	ScoreSteps     int64 // candidate scores visited by the main loop
	NonEmptySteps  int64 // scores with at least one non-empty wavefront
	CellsComputed  int64 // M~ frame-column cells computed (incl. invalid slots)
	CellsExtended  int64 // valid M~ cells passed to extend
	BasesCompared  int64 // base comparisons performed by extend (incl. failing one)
	Blocks16       int64 // 16-base comparator blocks (vector/hardware extend unit)
	MaxWavefront   int   // widest M~ wavefront seen
	SumWavefront   int64 // sum of M~ wavefront widths over all steps
	WavefrontBytes int64 // bytes of wavefront storage touched (memory-footprint model)
}

// Aligner runs the WFA. It is reusable across calls; it is not safe for
// concurrent use. Reuse is the point: the stores, the wavefront free list
// and the backtrace scratch all persist across Run calls, so the steady
// state of AlignBatch (one Aligner per worker, thousands of pairs each)
// allocates only when a pair needs more capacity than any pair before it.
type Aligner struct {
	pen   align.Penalties
	opts  Options
	store wfStore

	// Reused machinery (pool.go): stores are rebuilt in place per Run, dead
	// wavefronts recycle through pool, backtrace ops accumulate in btScratch.
	full      *fullStore
	ring      *ringStore
	pool      Pool
	btScratch []align.Op

	a, b   []byte
	n, m   int
	alignK int
	Stats  Stats
}

// New returns an Aligner for the penalty set. Invalid penalties — which can
// arrive from user input through the driver API — surface as an error, never
// as a panic.
func New(p align.Penalties, opts Options) (*Aligner, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("wfa: %w", err)
	}
	return newAligner(p, opts), nil
}

// newAligner skips validation; callers must have validated p already.
func newAligner(p align.Penalties, opts Options) *Aligner {
	return &Aligner{pen: p, opts: opts}
}

// Align is a convenience wrapper: one-shot alignment of a and b.
func Align(a, b []byte, p align.Penalties, opts Options) (align.Result, Stats, error) {
	al, err := New(p, opts)
	if err != nil {
		return align.Result{}, Stats{}, err
	}
	res := al.Run(a, b)
	return res, al.Stats, nil
}

// safeMaxScore derives a bound that any alignment is guaranteed to beat.
func safeMaxScore(n, m int, p align.Penalties) int {
	short, diff := n, m-n
	if m < n {
		short, diff = m, n-m
	}
	return p.Mismatch*short + p.GapCost(diff) + p.GapOpen + p.GapExtend + 1
}

// Run aligns a (query) against b (text) and returns the result. Stats are
// left in al.Stats.
func (al *Aligner) Run(a, b []byte) align.Result {
	al.a, al.b = a, b
	al.n, al.m = len(a), len(b)
	al.alignK = al.m - al.n
	al.Stats = Stats{}

	maxScore := al.opts.MaxScore
	if maxScore <= 0 {
		maxScore = safeMaxScore(al.n, al.m, al.pen)
	}
	if al.opts.MaxK > 0 {
		// Equation 6: Score_max = k_max*2 + 4. A k_max too small for the
		// final diagonal makes the alignment unreachable; the run will hit
		// maxScore and report Success=false, as the hardware does.
		if eqScore := al.opts.MaxK*2 + 4; eqScore < maxScore {
			maxScore = eqScore
		}
	}

	window := al.pen.GapOpen + al.pen.GapExtend
	if al.pen.Mismatch > window {
		window = al.pen.Mismatch
	}
	if al.opts.WithCIGAR {
		if al.full == nil {
			al.full = newFullStore(maxScore, &al.pool)
		} else {
			al.full.reset(maxScore)
		}
		al.store = al.full
	} else {
		if al.ring == nil || al.ring.window != window+1 {
			al.ring = newRingStore(window+1, &al.pool)
		} else {
			al.ring.reset()
		}
		al.store = al.ring
	}

	// Initial condition M~(0,0) = 0, then extend (Section 2.3).
	m0 := al.newWF(0, 0)
	m0.Set(0, 0, MTagNone)
	al.extend(m0)
	al.store.put(CompM, 0, m0)
	al.observe(m0)
	if al.done(m0) {
		res := align.Result{Score: 0, Success: true}
		al.Stats.Score = 0
		if al.opts.WithCIGAR {
			res.CIGAR = al.backtrace(0)
		}
		return res
	}

	emptyRun := 0
	for s := 1; s <= maxScore; s++ {
		al.Stats.ScoreSteps++
		mwf := al.computeScore(s)
		if mwf.Len() == 0 {
			al.store.put(CompM, s, nil)
			emptyRun++
			if emptyRun > window {
				// Nothing in the dependency window: no wavefront can ever
				// be generated again. Unreachable goal (possible only under
				// a MaxK clamp).
				break
			}
			continue
		}
		emptyRun = 0
		al.Stats.NonEmptySteps++
		al.extend(mwf)
		al.store.put(CompM, s, mwf)
		al.observe(mwf)
		if al.done(mwf) {
			al.Stats.Score = s
			res := align.Result{Score: s, Success: true}
			if al.opts.WithCIGAR {
				res.CIGAR = al.backtrace(s)
			}
			return res
		}
	}
	return align.Result{Success: false}
}

// observe records per-step statistics.
func (al *Aligner) observe(mwf *Wavefront) {
	w := mwf.Len()
	if w > al.Stats.MaxWavefront {
		al.Stats.MaxWavefront = w
	}
	al.Stats.SumWavefront += int64(w)
	al.Stats.WavefrontBytes += int64(w) * 15 // 3 components x (4B offset + 1B tag)
}

// done reports whether the wavefront has reached the end of both sequences.
func (al *Aligner) done(mwf *Wavefront) bool {
	return mwf.Valid(al.alignK) && mwf.At(al.alignK) >= int32(al.m)
}

// clampRange applies the structural diagonal bounds: the DP-matrix corners
// and, when configured, the hardware k_max.
func (al *Aligner) clampRange(lo, hi int) (int, int) {
	if lo < -al.n {
		lo = -al.n
	}
	if hi > al.m {
		hi = al.m
	}
	if al.opts.MaxK > 0 {
		if lo < -al.opts.MaxK {
			lo = -al.opts.MaxK
		}
		if hi > al.opts.MaxK {
			hi = al.opts.MaxK
		}
	}
	return lo, hi
}

// trim invalidates an offset that stepped outside the DP-matrix
// (offset > |b|, or i = offset-k > |a|), mirroring the hardware's validity
// rules.
func (al *Aligner) trim(off int32, k int) int32 {
	if !ValidOffset(off) {
		return Invalid
	}
	if off > int32(al.m) || off-int32(k) > int32(al.n) {
		return Invalid
	}
	return off
}

// computeScore computes I~(s), D~(s) and M~(s) from the dependency wavefronts
// (Equation 3 / Figure 2) and returns M~(s). I~ and D~ are stored as a side
// effect.
func (al *Aligner) computeScore(s int) *Wavefront {
	x, o, e := al.pen.Mismatch, al.pen.GapOpen, al.pen.GapExtend
	srcMx := al.getWF(CompM, s-x)
	srcMoe := al.getWF(CompM, s-o-e)
	srcIe := al.getWF(CompI, s-e)
	srcDe := al.getWF(CompD, s-e)

	// I~(s): sources shift k by +1.
	var iwf *Wavefront
	if srcMoe.Len() > 0 || srcIe.Len() > 0 {
		lo, hi := rangeUnion(srcMoe, srcIe)
		lo, hi = al.clampRange(lo+1, hi+1)
		if lo <= hi {
			iwf = al.newWF(lo, hi)
			for k := lo; k <= hi; k++ {
				open := srcMoe.At(k - 1)
				ext := srcIe.At(k - 1)
				var v int32
				var tag uint8
				if open >= ext { // tie: open wins
					v, tag = open, GTagOpen
				} else {
					v, tag = ext, GTagExt
				}
				if ValidOffset(v) {
					v = al.trim(v+1, k)
				}
				if ValidOffset(v) {
					iwf.Set(k, v, tag)
				}
			}
		}
	}
	al.store.put(CompI, s, iwf)

	// D~(s): sources shift k by -1, offset unchanged.
	var dwf *Wavefront
	if srcMoe.Len() > 0 || srcDe.Len() > 0 {
		lo, hi := rangeUnion(srcMoe, srcDe)
		lo, hi = al.clampRange(lo-1, hi-1)
		if lo <= hi {
			dwf = al.newWF(lo, hi)
			for k := lo; k <= hi; k++ {
				open := srcMoe.At(k + 1)
				ext := srcDe.At(k + 1)
				var v int32
				var tag uint8
				if open >= ext {
					v, tag = open, GTagOpen
				} else {
					v, tag = ext, GTagExt
				}
				v = al.trim(v, k)
				if ValidOffset(v) {
					dwf.Set(k, v, tag)
				}
			}
		}
	}
	al.store.put(CompD, s, dwf)

	// M~(s) = max(M~(s-x)+1, I~(s), D~(s)). An empty clamped range returns
	// nil without touching the pool — acquiring a zero-width wavefront here
	// would leak it (the caller stores nil for empty scores), and empty
	// scores are common under gap-affine penalties.
	lo, hi := rangeUnion3(srcMx, iwf, dwf)
	lo, hi = al.clampRange(lo, hi)
	if lo > hi {
		return nil
	}
	mwf := al.newWF(lo, hi)
	for k := mwf.Lo; k <= mwf.Hi; k++ {
		al.Stats.CellsComputed++
		var sub int32 = Invalid
		if v := srcMx.At(k); ValidOffset(v) {
			sub = v + 1
		}
		ins := iwf.At(k)
		del := dwf.At(k)
		// Tie-break order: substitution, insertion, deletion.
		v, tag := sub, MTagSub
		if ins > v {
			v = ins
			if iwf.TagAt(k) == GTagOpen {
				tag = MTagIOpen
			} else {
				tag = MTagIExt
			}
		}
		if del > v {
			v = del
			if dwf.TagAt(k) == GTagOpen {
				tag = MTagDOpen
			} else {
				tag = MTagDExt
			}
		}
		v = al.trim(v, k)
		if ValidOffset(v) {
			mwf.Set(k, v, tag)
		}
	}
	return mwf
}

// extend advances every valid M~ cell along its diagonal while bases match
// (the extend() operator of Section 2.3), counting comparator work.
func (al *Aligner) extend(mwf *Wavefront) {
	a, b := al.a, al.b
	n, m := int32(al.n), int32(al.m)
	for k := mwf.Lo; k <= mwf.Hi; k++ {
		v := mwf.Off[k-mwf.Lo]
		if !ValidOffset(v) {
			continue
		}
		al.Stats.CellsExtended++
		i := v - int32(k)
		j := v
		start := j
		for i < n && j < m && a[i] == b[j] {
			i++
			j++
		}
		matched := j - start
		compared := matched
		if i < n && j < m {
			compared++ // the failing comparison
		}
		al.Stats.BasesCompared += int64(compared)
		// Hardware/vector comparator: 16 bases per block, at least one
		// block per extended cell (Section 4.3.2).
		al.Stats.Blocks16 += int64(compared/16) + 1
		mwf.Off[k-mwf.Lo] = j
	}
}

// newWF returns an all-invalid wavefront spanning [lo, hi], recycling pooled
// storage when available (pool.go).
func (al *Aligner) newWF(lo, hi int) *Wavefront {
	return al.pool.Acquire(lo, hi)
}

// getWF fetches a dependency wavefront; negative scores are nil.
func (al *Aligner) getWF(c Component, s int) *Wavefront {
	if s < 0 {
		return nil
	}
	return al.store.get(c, s)
}

// rangeUnion returns the union of the diagonal ranges of two wavefronts
// (either may be nil/empty). When both are empty it returns an empty range.
func rangeUnion(a, b *Wavefront) (lo, hi int) {
	switch {
	case a.Len() == 0 && b.Len() == 0:
		return 1, 0
	case a.Len() == 0:
		return b.Lo, b.Hi
	case b.Len() == 0:
		return a.Lo, a.Hi
	}
	lo, hi = a.Lo, a.Hi
	if b.Lo < lo {
		lo = b.Lo
	}
	if b.Hi > hi {
		hi = b.Hi
	}
	return lo, hi
}

// rangeUnion3 is rangeUnion over three wavefronts.
func rangeUnion3(a, b, c *Wavefront) (lo, hi int) {
	lo, hi = rangeUnion(a, b)
	if c.Len() == 0 {
		return lo, hi
	}
	if lo > hi {
		return c.Lo, c.Hi
	}
	if c.Lo < lo {
		lo = c.Lo
	}
	if c.Hi > hi {
		hi = c.Hi
	}
	return lo, hi
}

// wfStore abstracts wavefront retention: full (for backtrace) or a sliding
// window (score-only).
type wfStore interface {
	get(c Component, s int) *Wavefront
	put(c Component, s int, w *Wavefront)
}

type fullStore struct {
	wfs  [numComponents][]*Wavefront
	pool *Pool
}

func newFullStore(maxScore int, pool *Pool) *fullStore {
	st := &fullStore{pool: pool}
	for c := range st.wfs {
		st.wfs[c] = make([]*Wavefront, maxScore+1)
	}
	return st
}

// reset recycles every retained wavefront into the pool and re-sizes the
// score axis for the next run, reusing the slot arrays' capacity.
// Wavefronts are released score-descending so the LIFO pool pops them
// narrowest-first — the order the next run requests widths in — keeping
// each recycled backing array capacity-matched to the request it serves.
func (st *fullStore) reset(maxScore int) {
	n := 0
	for c := range st.wfs {
		if len(st.wfs[c]) > n {
			n = len(st.wfs[c])
		}
	}
	for s := n - 1; s >= 0; s-- {
		for c := range st.wfs {
			if s >= len(st.wfs[c]) {
				continue
			}
			st.pool.Release(st.wfs[c][s])
			st.wfs[c][s] = nil
		}
	}
	for c := range st.wfs {
		if cap(st.wfs[c]) >= maxScore+1 {
			st.wfs[c] = st.wfs[c][:maxScore+1]
		} else {
			st.wfs[c] = make([]*Wavefront, maxScore+1)
		}
	}
}

func (st *fullStore) get(c Component, s int) *Wavefront {
	if s < 0 || s >= len(st.wfs[c]) {
		return nil
	}
	return st.wfs[c][s]
}

func (st *fullStore) put(c Component, s int, w *Wavefront) {
	if s >= len(st.wfs[c]) {
		invariant.Failf("wfa", "score %d beyond store capacity %d", s, len(st.wfs[c]))
	}
	st.wfs[c][s] = w
}

// ringStore keeps only the last `window` scores — the hardware's "only keep
// those necessary wavefront vectors" policy (Section 4.3.1).
type ringStore struct {
	window int
	score  []int
	wfs    [numComponents][]*Wavefront
	pool   *Pool
}

// reset empties the ring for the next run, recycling retained wavefronts.
func (st *ringStore) reset() {
	for i := range st.score {
		st.score[i] = -1
	}
	for c := range st.wfs {
		for i, w := range st.wfs[c] {
			st.pool.Release(w)
			st.wfs[c][i] = nil
		}
	}
}

func newRingStore(window int, pool *Pool) *ringStore {
	st := &ringStore{window: window, score: make([]int, window), pool: pool}
	for i := range st.score {
		st.score[i] = -1
	}
	for c := range st.wfs {
		st.wfs[c] = make([]*Wavefront, window)
	}
	return st
}

func (st *ringStore) get(c Component, s int) *Wavefront {
	if s < 0 {
		return nil
	}
	slot := s % st.window
	if st.score[slot] != s {
		return nil
	}
	return st.wfs[c][slot]
}

func (st *ringStore) put(c Component, s int, w *Wavefront) {
	slot := s % st.window
	if st.score[slot] != s {
		st.score[slot] = s
		// The evicted score is window scores behind every dependency window,
		// so its wavefronts are dead: recycle them.
		for comp := range st.wfs {
			st.pool.Release(st.wfs[comp][slot])
			st.wfs[comp][slot] = nil
		}
	}
	st.wfs[c][slot] = w
}
