package core

import (
	"slices"

	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/wfa"
)

// alignerState enumerates the Aligner module's control states.
type alignerState int

const (
	alignerIdle alignerState = iota
	alignerLoading
	alignerRunning
	alignerDraining
)

// obKind distinguishes outbox entries.
type obKind int

const (
	obBlock  obKind = iota // one backtrace origin block
	obResult               // the final result of an alignment
)

// obEntry is one unit of output the Aligner hands to the Collector, in
// stream order.
type obEntry struct {
	kind  obKind
	id    uint32
	block []byte      // obBlock: packed 5-bit origins, BTBlockBytes long, in the Aligner's arena
	res   ScoreRecord // obResult
}

// outboxCap bounds the Aligner->Collector buffer; a full outbox stalls the
// Aligner, which is how backtrace traffic backpressures the pipeline
// (Section 4.1: transferring backtrace data "may limit the performance").
const outboxCap = 8

// AlignerStats counts one Aligner's work across all pairs it processed.
type AlignerStats struct {
	Pairs         int64
	Steps         int64 // non-empty score steps
	EmptySteps    int64
	Batches       int64
	CellsComputed int64
	CellsExtended int64
	ExtendBlocks  int64 // comparator blocks summed over every lane
	MaxBlocksSum  int64 // per-batch maximum lane blocks, summed (the extend critical path)
	BTBlocks      int64
	StallCycles   int64 // cycles stalled on a full outbox
	BusyCycles    int64

	// Cycle attribution (the paper's extend-vs-compute split, Section 5).
	ComputeCycles int64 // Compute sub-modules: step overhead, issue, latency
	ExtendCycles  int64 // Extend critical path: pipeline fill + comparator blocks
	LoadCycles    int64 // cycles in Loading (the Extractor streaming the pair in)
	DrainCycles   int64 // cycles in Draining (outbox emptying into the Collector)
	BankConflicts int64 // window-edge accesses absorbed by the duplicated RAMs

	// SDCWavefront counts wavefront parity trips: single-event upsets the
	// injector actually applied to a Wavefront RAM line. The model latches
	// the trip at the flip itself — the faithful abstraction of per-line
	// parity checked on every read, which detects all 1-bit errors with
	// probability 1 — and the Machine exposes the per-job delta through
	// RegSDCWavefront so the driver can discard the tainted attempt.
	SDCWavefront int64
}

// AlignerHW is one Aligner module (Section 4.3): ParallelSections pairs of
// Extend and Compute sub-modules over replicated Input_Seq RAMs and banked
// Wavefront RAMs.
type AlignerHW struct {
	cfg  Config
	bank Banking
	idx  int

	state alignerState

	// Loaded pair.
	seqA, seqB  *SeqRAM
	pairID      uint32
	unsupported bool
	btEnabled   bool

	// Run state. tracker and ring are caches that outlive a pair: both are
	// reset, not reallocated, when the next pair starts, and dead wavefronts
	// recycle through pool, so the steady state of a job stream allocates
	// nothing per pair.
	tracker  wfa.RangeTracker
	ring     *wfa.Ring
	pool     wfa.Pool
	s        int
	scoreMax int
	busy     int64
	finished bool
	success  bool
	finalK   int

	// outbox holds the Collector's pending output in stream order. Its
	// blocks point into arena; the Collector copies each block out as it
	// takes it, so an empty outbox means no block is live and the next
	// block is packed at the start of the arena again.
	outbox sim.Queue[obEntry]
	arena  []byte

	// inj is the machine-wide fault injector (nil-safe; set by
	// Machine.AttachInjector).
	inj *fault.Injector

	// Per-pair measurement hooks (read by the Machine).
	startCycle  int64
	finishCycle int64

	Stats AlignerStats

	// Scratch buffers reused across steps: the origin row wfa.Step writes
	// (one cell per M~ diagonal, at most 2*KMax+1) and one block's origins.
	row        []uint8
	originsBuf []uint8

	// Retained Input_Seq RAM images the Extractor loads each pair into
	// (seqA/seqB point at these while a supported pair is in flight).
	seqABuf, seqBBuf SeqRAM
}

// NewAlignerHW builds one Aligner for the configuration.
func NewAlignerHW(cfg Config, idx int) *AlignerHW {
	a := &AlignerHW{
		cfg:        cfg,
		bank:       Banking{P: cfg.ParallelSections, KMax: cfg.KMax},
		idx:        idx,
		scoreMax:   cfg.ScoreMax(),
		row:        make([]uint8, 2*cfg.KMax+1),
		originsBuf: make([]uint8, cfg.ParallelSections),
	}
	a.ring = wfa.NewRing(cfg.Penalties, &a.pool)
	return a
}

// Idle reports whether the Aligner can accept a new pair.
func (a *AlignerHW) Idle() bool { return a.state == alignerIdle }

// Reset aborts any in-flight pair and returns the Aligner to idle,
// discarding all pair state and queued output. Statistics survive.
func (a *AlignerHW) Reset() {
	a.state = alignerIdle
	a.seqA, a.seqB = nil, nil
	a.pairID = 0
	a.unsupported = false
	a.btEnabled = false
	// tracker and ring are kept as caches for the next pair; the ring's
	// wavefronts go back to the pool.
	a.ring.Reset()
	a.s = 0
	a.busy = 0
	a.finished = false
	a.success = false
	a.finalK = 0
	a.outbox.Clear()
	a.arena = a.arena[:0]
}

// BeginLoad transitions to Loading; the Extractor streams the pair in.
func (a *AlignerHW) BeginLoad() {
	if a.state != alignerIdle {
		// Guarded Failf keeps the ...any argument slice off the happy path.
		invariant.Failf("core", "BeginLoad on non-idle Aligner (state %d)", a.state)
	}
	a.state = alignerLoading
}

// Start launches the alignment of the loaded pair at the given cycle.
func (a *AlignerHW) Start(id uint32, seqA, seqB *SeqRAM, unsupported, btEnabled bool, cycle int64) {
	if a.state != alignerLoading {
		invariant.Failf("core", "Start on Aligner that is not loading (state %d)", a.state)
	}
	a.pairID = id
	a.seqA, a.seqB = seqA, seqB
	a.unsupported = unsupported
	a.btEnabled = btEnabled
	a.state = alignerRunning
	a.startCycle = cycle
	a.finished = false
	a.success = false
	a.finalK = 0
	a.s = 0
	a.Stats.Pairs++

	if unsupported {
		// Section 4.2: the Aligner does not process the alignment and sets
		// the Success flag to zero.
		a.finished = true
		a.busy = 1
		return
	}

	n, m := seqA.Length, seqB.Length
	a.tracker.Reset(a.cfg.Penalties, n, m, a.cfg.KMax)
	a.ring.Reset()

	// Score 0: the initial cell M~(0,0) = 0, extended.
	m0 := a.pool.Acquire(0, 0)
	matches, blocks := extendCell(seqA, seqB, 0, 0)
	m0.Set(0, int32(matches))
	a.Stats.CellsExtended++
	a.Stats.ExtendBlocks += int64(blocks)
	a.Stats.ExtendCycles += int64(a.cfg.Timing.ExtendFill + blocks)
	a.ring.Put(0, nil, nil, m0)
	a.busy = int64(a.cfg.Timing.StartupCycles + a.cfg.Timing.ExtendFill + blocks)
	if wfa.Done(m0, n, m) {
		a.success = true
		a.finalK = m - n
		a.finished = true
	}
}

// TakeOutput pops the oldest outbox entry (Collector side). A block entry
// points into the Aligner's arena: the caller must copy it before the
// Aligner ticks again.
func (a *AlignerHW) TakeOutput() (obEntry, bool) { return a.outbox.Pop() }

// HasOutput reports whether outbox entries are pending.
func (a *AlignerHW) HasOutput() bool { return a.outbox.Len() > 0 }

// Tick advances the Aligner one cycle.
func (a *AlignerHW) Tick(cycle int64) {
	switch a.state {
	case alignerIdle:
		return
	case alignerLoading:
		a.Stats.LoadCycles++
		return
	case alignerDraining:
		a.Stats.DrainCycles++
		if !a.HasOutput() {
			a.state = alignerIdle
		}
		return
	case alignerRunning:
	}
	a.Stats.BusyCycles++
	if a.busy > 0 {
		a.busy--
		return
	}
	if a.finished {
		a.emitResult(cycle)
		return
	}
	if a.outbox.Len() >= outboxCap {
		a.Stats.StallCycles++
		return
	}
	a.advanceScore(cycle)
}

// emitResult queues the final record and moves to draining. A failed
// alignment reports the last score budget it processed (ScoreMax for an
// Equation 6 overflow, 0 for an unsupported read) so the CPU decoder can
// compute how many backtrace blocks the stream contains without scanning it.
func (a *AlignerHW) emitResult(cycle int64) {
	score := a.s
	if !a.success && score > a.scoreMax {
		score = a.scoreMax
	}
	a.outbox.Push(obEntry{
		kind: obResult,
		id:   a.pairID,
		res: ScoreRecord{
			Success: a.success,
			K:       int16(a.finalK),
			Score:   uint16(score),
		},
	})
	a.finishCycle = cycle
	a.state = alignerDraining
	a.seqA, a.seqB = nil, nil
	// tracker and ring stay cached for the next pair; recycle the window.
	a.ring.Reset()
}

// advanceScore processes the next candidate score.
func (a *AlignerHW) advanceScore(cycle int64) {
	a.s++
	if a.s > a.scoreMax {
		// Equation 6 exceeded: "the alignment in the WFAsic remains
		// incomplete and is terminated" with Success = 0.
		a.success = false
		a.finished = true
		a.busy = 1
		return
	}
	iR, dR, mR := a.tracker.Extend(a.s)
	if mR.Empty() {
		a.Stats.EmptySteps++
		a.busy = int64(a.cfg.Timing.EmptyStepCycles)
		return
	}
	cycles := a.executeStep(cycle, a.s, iR, dR, mR)
	a.Stats.Steps++
	a.busy = cycles - 1
	if a.busy < 0 {
		a.busy = 0
	}
}

// executeStep computes the frame column for score s (Compute sub-modules),
// extends it (Extend sub-modules), emits the backtrace blocks, checks
// termination, and returns the step's cycle cost.
func (a *AlignerHW) executeStep(cycle int64, s int, iR, dR, mR wfa.Range) int64 {
	pen := a.cfg.Penalties
	x, oe, e := pen.Mismatch, pen.GapOpen+pen.GapExtend, pen.GapExtend
	n, m := a.seqA.Length, a.seqB.Length

	// Compute I~(s), D~(s) and M~(s) — the frame column.
	iwf, dwf, mwf := wfa.Step(&a.pool, n, m, iR, dR, mR,
		a.ring.Get(wfa.CompM, s-x), a.ring.Get(wfa.CompM, s-oe),
		a.ring.Get(wfa.CompI, s-e), a.ring.Get(wfa.CompD, s-e), a.row)
	a.Stats.CellsComputed += int64(mR.Len())

	// Extend phase + grid-aligned batch accounting (Figure 6 banking).
	P := a.cfg.ParallelSections
	kStart := a.bank.BatchStart(mR.Lo)
	batches := a.bank.NumBatches(mR.Lo, mR.Hi)
	t := a.cfg.Timing
	cycles := int64(t.StepOverhead + t.ComputeLatency + t.ExtendFill)
	a.Stats.ComputeCycles += int64(t.StepOverhead + t.ComputeLatency)
	a.Stats.ExtendCycles += int64(t.ExtendFill)
	for b := 0; b < batches; b++ {
		// Only the batch's lanes inside M~(s) hold cells.
		base := kStart + b*P
		lo, hi := max(base, mR.Lo), min(base+P-1, mR.Hi)
		maxBlocks := 0
		for k := lo; k <= hi; k++ {
			if v := mwf.At(k); wfa.ValidOffset(v) {
				i := int(v) - k
				j := int(v)
				matches, blocks := extendCell(a.seqA, a.seqB, i, j)
				mwf.Set(k, v+int32(matches))
				a.Stats.CellsExtended++
				a.Stats.ExtendBlocks += int64(blocks)
				maxBlocks = max(maxBlocks, blocks)
			}
		}
		cycles += int64(t.ComputeIssue + maxBlocks)
		a.Stats.Batches++
		a.Stats.MaxBlocksSum += int64(maxBlocks)
		a.Stats.ComputeCycles += int64(t.ComputeIssue)
		a.Stats.ExtendCycles += int64(maxBlocks)
		// The ±1-shifted gap-source reads (rows r0-1 and r0+P) would conflict
		// with the aligned window reads on banks P-1 and 0; the duplicated
		// RAMs 1'/N' absorb them, and we count each absorbed access.
		r0 := a.bank.RowOf(base)
		if r0-1 >= 0 {
			a.Stats.BankConflicts++
		}
		if r0+P < a.bank.Rows() {
			a.Stats.BankConflicts++
		}
		if a.btEnabled {
			a.emitBlock(base, lo, hi, mR.Lo)
		}
	}

	// Fault hook: a single-event upset in the Wavefront RAM line just
	// written. Only flips that leave the offset inside the sequence grid are
	// applied (an out-of-grid value would be trimmed by the next step
	// anyway); the resulting cell is plausible but wrong, which is exactly
	// the silent-corruption case the driver's software oracle must catch.
	if idx, bit, ok := a.inj.FlipWavefront(cycle, a.idx, mR.Hi-mR.Lo+1); ok {
		k := mR.Lo + idx
		if v := mwf.At(k); wfa.ValidOffset(v) {
			nv := v ^ int32(1<<bit)
			if nv >= 0 && nv <= int32(m) && nv-int32(k) >= 0 && nv-int32(k) <= int32(n) {
				mwf.Set(k, nv)
				// Parity witness: the flipped line fails its parity check
				// the next time it is read. Latched as a monotone trip so
				// the job-level RegSDCWavefront register reports it.
				a.Stats.SDCWavefront++
			}
		}
	}

	a.ring.Put(s, iwf, dwf, mwf)
	if wfa.Done(mwf, n, m) {
		a.success = true
		a.finalK = m - n
		a.finished = true
	}
	return cycles
}

// emitBlock packs the origin block of the batch whose lanes start at
// diagonal base into the arena and queues it for the Collector. Lanes
// [lo, hi] carry their origin from the step's row, which starts at diagonal
// rowLo; the other lanes hold no cell and stream zero.
func (a *AlignerHW) emitBlock(base, lo, hi, rowLo int) {
	origins := a.originsBuf
	for c := range origins {
		var org uint8
		if k := base + c; k >= lo && k <= hi {
			org = a.row[k-rowLo] & wfa.OriginMask
		}
		origins[c] = org
	}
	if a.outbox.Len() == 0 {
		a.arena = a.arena[:0]
	}
	off := len(a.arena)
	size := a.cfg.BTBlockBytes()
	a.arena = slices.Grow(a.arena, size)[:off+size]
	block := a.arena[off:]
	PackOriginBlock(block, origins)
	a.outbox.Push(obEntry{kind: obBlock, id: a.pairID, block: block})
	a.Stats.BTBlocks++
}
