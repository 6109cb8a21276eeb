package wfa

import (
	"fmt"
	"slices"

	"repro/internal/align"
	"repro/internal/seqio"
)

// Options configures one WFA run.
type Options struct {
	// WithCIGAR logs every score's origin row, one byte per M~ diagonal,
	// and performs the backtrace from the log. Either mode keeps only a
	// sliding window of wavefronts; without WithCIGAR only the current
	// origin row is kept (O(n+s) memory) and Result.CIGAR is nil. This
	// mirrors the accelerator's backtrace-enabled/disabled modes.
	WithCIGAR bool
	// MaxScore aborts the alignment once the score would exceed this bound,
	// returning Success=false — the accelerator's Equation 6 behaviour.
	// Zero means "no explicit bound" (a safe bound is derived from the
	// sequence lengths).
	MaxScore int
	// MaxK clamps the diagonal range to [-MaxK, MaxK], the hardware's k_max
	// design parameter (Section 4.3.1), and caps the score at
	// ScoreMax(MaxK, penalties) as the hardware does. Zero means unbounded.
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
	WavefrontBytes int64 // modelled RISC-V wavefront footprint (see observe), not this Go code's
}

// Aligner runs the WFA. It is reusable across calls; it is not safe for
// concurrent use. Reuse is the point: the window, the wavefront free list,
// the origin log and the backtrace scratch all persist across Run calls, so
// the steady state of AlignBatch (one Aligner per worker, thousands of pairs
// each) allocates only when a pair needs more capacity than any pair before
// it.
type Aligner struct {
	pen  align.Penalties
	opts Options

	// Reused machinery (pool.go): the window and the range tracker are
	// rebuilt in place per Run, dead wavefronts recycle through pool,
	// backtrace ops accumulate in btScratch.
	ring      *Ring
	tracker   RangeTracker
	pool      Pool
	btScratch []BackOp

	// origins is the origin log: score s's row, one cell per diagonal of
	// its M~ range (tracker.MRange(s)), starts at origins[rowBase[s]]. In
	// score-only mode it holds only the current row and rowBase stays
	// empty. Both are truncate-reset per pair.
	origins []uint8
	rowBase []int

	// a and b are the pair's reads; aw and bw are them packed in seqio's
	// 2-bit layout for Extend, refilled per pair into retained storage.
	a, b   []byte
	aw, bw []uint32
	n, m   int
	Stats  Stats
}

// New returns an Aligner for the penalty set. Invalid penalties — which can
// arrive from user input through the driver API — surface as an error, never
// as a panic.
func New(p align.Penalties, opts Options) (*Aligner, error) {
	if err := p.Validate(); err != nil {
		return nil, penaltyError(err)
	}
	return newAligner(p, opts), nil
}

// penaltyError wraps a penalty-validation failure for New and AlignBatch.
// It runs on the reject path only.
//
//vet:coldpath
func penaltyError(err error) error {
	return fmt.Errorf("wfa: %w", err)
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
// left in al.Stats. A read outside the accelerator alphabet (seqio.Alphabet)
// is unsupported, as on the accelerator (Section 4.2): the pair fails with
// Success=false and zero Stats.
func (al *Aligner) Run(a, b []byte) align.Result {
	al.Stats = Stats{}
	aw, err := seqio.PackSequenceInto(al.aw[:0], a)
	if err != nil {
		return align.Result{Success: false}
	}
	al.aw = aw
	bw, err := seqio.PackSequenceInto(al.bw[:0], b)
	if err != nil {
		return align.Result{Success: false}
	}
	al.bw = bw
	al.a, al.b = a, b
	al.n, al.m = len(a), len(b)

	maxScore := al.opts.MaxScore
	if maxScore <= 0 {
		maxScore = safeMaxScore(al.n, al.m, al.pen)
	}
	if al.opts.MaxK > 0 {
		// Equation 6. A k_max too small for the final diagonal makes the
		// alignment unreachable; the run will hit maxScore and report
		// Success=false, as the hardware does.
		maxScore = min(maxScore, ScoreMax(al.opts.MaxK, al.pen))
	}
	al.tracker.Reset(al.pen, al.n, al.m, al.opts.MaxK)
	if al.ring == nil {
		al.ring = NewRing(al.pen, &al.pool)
	} else {
		al.ring.Reset()
	}
	al.origins = al.origins[:0]
	al.rowBase = al.rowBase[:0]

	// Initial condition M~(0,0) = 0, then extend (Section 2.3). Its origin
	// is MTagNone: the walk ends there.
	m0 := al.pool.Acquire(0, 0)
	m0.Set(0, 0)
	al.originRow(1)[0] = validBit(CompM)
	al.extend(m0)
	al.ring.Put(0, nil, nil, m0)
	al.observe(m0)
	if Done(m0, al.n, al.m) {
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
		iwf, dwf, mwf := al.computeScore(s)
		if mwf == nil {
			al.ring.Put(s, iwf, dwf, nil)
			emptyRun++
			if emptyRun > depth(al.pen) {
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
		al.ring.Put(s, iwf, dwf, mwf)
		al.observe(mwf)
		if Done(mwf, al.n, al.m) {
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
	// The modelled footprint of a RISC-V CPU running the WFA, which cpumodel
	// prices: 3 components x (4B offset + 1B tag) per M~ diagonal. It stays
	// independent of how this Go code stores wavefronts and origins.
	al.Stats.WavefrontBytes += int64(w) * 15
}

// computeScore computes I~(s), D~(s) and M~(s) over the tracker's ranges
// from the dependency wavefronts (Equation 3 / Figure 2), writing the
// origins into score s's row. M~(s) is nil when its range is empty.
func (al *Aligner) computeScore(s int) (iwf, dwf, mwf *Wavefront) {
	x, oe, e := al.pen.Mismatch, al.pen.GapOpen+al.pen.GapExtend, al.pen.GapExtend
	iR, dR, mR := al.tracker.Extend(s)
	al.Stats.CellsComputed += int64(mR.Len())
	return Step(&al.pool, al.n, al.m, iR, dR, mR,
		al.ring.Get(CompM, s-x), al.ring.Get(CompM, s-oe),
		al.ring.Get(CompI, s-e), al.ring.Get(CompD, s-e), al.originRow(mR.Len()))
}

// originRow returns the next score's origin row, w cells: appended to the
// log in CIGAR mode, replacing the previous row in score-only mode. The log
// at least doubles whenever it grows, so a pair's log costs about one extra
// log of copies, and it is truncate-reset per pair, so its capacity
// amortizes across pairs.
func (al *Aligner) originRow(w int) []uint8 {
	start := 0
	if al.opts.WithCIGAR {
		start = len(al.origins)
		al.rowBase = append(al.rowBase, start)
	}
	if start+w > cap(al.origins) {
		al.origins = slices.Grow(al.origins[:start], max(w, cap(al.origins)))
	}
	al.origins = al.origins[:start+w]
	return al.origins[start:]
}

// extend advances every valid M~ cell along its diagonal while bases match
// (the extend() operator of Section 2.3), counting comparator work.
func (al *Aligner) extend(mwf *Wavefront) {
	for k := mwf.Lo; k <= mwf.Hi; k++ {
		v := mwf.Off[k-mwf.Lo]
		if !ValidOffset(v) {
			continue
		}
		al.Stats.CellsExtended++
		i, j := int(v)-k, int(v)
		matched := Extend(al.aw, al.bw, al.n, al.m, i, j)
		compared := matched
		if i+matched < al.n && j+matched < al.m {
			compared++ // the failing comparison
		}
		al.Stats.BasesCompared += int64(compared)
		// Hardware/vector comparator: 16 bases per block, at least one
		// block per extended cell (Section 4.3.2).
		al.Stats.Blocks16 += int64(compared/16) + 1
		mwf.Off[k-mwf.Lo] = v + int32(matched)
	}
}

// Ring is the wavefront window: only the scores the recurrence can still
// read are retained, the hardware's "only keep those necessary wavefront
// vectors" policy (Section 4.3.1). Both Aligners keep one in both modes:
// the backtrace reads origins, never old wavefronts. Dead wavefronts
// recycle through the owner's Pool.
type Ring struct {
	window int
	score  []int
	wfs    [numComponents][]*Wavefront
	pool   *Pool
}

// NewRing returns an empty window sized for the penalties' dependency depth:
// max(x, o+e)+1 scores, so the deepest dependency of score s, s-max(x, o+e),
// is still retained while s is computed.
func NewRing(p align.Penalties, pool *Pool) *Ring {
	window := depth(p) + 1
	r := &Ring{window: window, score: make([]int, window), pool: pool}
	for c := range r.wfs {
		r.wfs[c] = make([]*Wavefront, window)
	}
	r.Reset()
	return r
}

// Reset empties the ring for the next pair, recycling retained wavefronts.
// They go back component by component (every M~, then I~, then D~): in that
// order the LIFO pool stops allocating within two runs, which the alloc pins
// rely on.
func (r *Ring) Reset() {
	for slot := range r.score {
		r.score[slot] = -1
	}
	for c := range r.wfs {
		for slot := range r.score {
			r.pool.Release(r.wfs[c][slot])
			r.wfs[c][slot] = nil
		}
	}
}

// Get returns the retained wavefront of component c at score s, or nil when
// s is negative or no longer (or not yet) in the window.
func (r *Ring) Get(c Component, s int) *Wavefront {
	if s < 0 {
		return nil
	}
	slot := s % r.window
	if r.score[slot] != s {
		return nil
	}
	return r.wfs[c][slot]
}

// Put stores the three wavefronts of score s (any may be nil). The evicted
// score is window scores behind every dependency of s, so its wavefronts
// are dead: they go back to the pool.
func (r *Ring) Put(s int, iwf, dwf, mwf *Wavefront) {
	slot := s % r.window
	for c := range r.wfs {
		r.pool.Release(r.wfs[c][slot])
	}
	r.score[slot] = s
	r.wfs[CompM][slot], r.wfs[CompI][slot], r.wfs[CompD][slot] = mwf, iwf, dwf
}
