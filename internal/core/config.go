// Package core is the WFAsic accelerator model — the paper's primary
// contribution (Section 4). It reproduces the accelerator structurally:
//
//	DMA  ->  Input FIFO  ->  Extractor  ->  Aligner(s)  ->  Collector  ->  Output FIFO  ->  DMA
//
// Each Aligner contains a configurable number of parallel sections, every
// section pairing an Extend and a Compute sub-module with private Input_Seq
// RAMs and banked Wavefront RAMs (Figures 5-7). The model is functionally
// bit-faithful (scores, Success flags, backtrace streams and all memory
// formats match the paper's Sections 4.2-4.4) and cycle-counted at the
// granularity the evaluation measures (Table 1, Figures 9-11).
package core

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/mem"
	"repro/internal/wfa"
)

// Config describes one WFAsic instantiation.
type Config struct {
	// Penalties is the gap-affine scoring function baked into the Compute
	// sub-modules. The chip uses (4, 6, 2).
	Penalties align.Penalties
	// NumAligners is the number of Aligner modules (1 in the taped-out
	// chip; the FPGA prototype scales to 10+, Figure 10).
	NumAligners int
	// ParallelSections is the number of Extend+Compute sub-module pairs per
	// Aligner (64 in the chip). Must be a multiple of 8 so a backtrace
	// block (5 bits per section) is byte-aligned.
	ParallelSections int
	// MaxReadLenCap is the longest MAX_READ_LEN the Input_Seq RAMs support
	// (10K bases in the chip). Must be divisible by 16.
	MaxReadLenCap int
	// KMax bounds the wavefront diagonal range to [-KMax, KMax]
	// (Section 4.3.1). The chip uses 3998, giving Equation 6's
	// Score_max = 2*3998 + 4 = 8000.
	KMax int
	// InputFIFODepth / OutputFIFODepth are in 16-byte words (256 each in
	// the chip).
	InputFIFODepth  int
	OutputFIFODepth int
	// WatchdogCycles is the forward-progress window Machine.Run grants
	// before returning a HangError: if no datapath counter moves for this
	// many cycles the job is declared hung. Zero selects
	// DefaultWatchdogCycles; a negative value disables the watchdog.
	WatchdogCycles int
	// Timing holds the cycle-model constants.
	Timing Timing
}

// Timing parameterizes the accelerator cycle model. The defaults are
// calibrated once against Table 1 of the paper (see EXPERIMENTS.md); the
// shapes of all figures emerge from the structure, not from these constants.
type Timing struct {
	// DispatchOverhead is the per-pair Extractor cost besides streaming the
	// beats: header decode, Aligner handshake and start (cycles).
	DispatchOverhead int
	// StartupCycles is the Aligner's per-pair initialization: reading the
	// sequence lengths from the Input_Seq RAMs and priming the window
	// (Section 4.3.2).
	StartupCycles int
	// StepOverhead is the fixed per-score bookkeeping cost: frame-column
	// rotation, score/range update (cycles).
	StepOverhead int
	// EmptyStepCycles is the cost of skipping a score whose wavefront
	// vector is empty.
	EmptyStepCycles int
	// ComputeIssue is the per-batch issue interval of the Compute phase:
	// the two sequential M~-window accesses of Section 4.3.1, two cycles
	// each on the single-port macros.
	ComputeIssue int
	// ComputeLatency and ExtendFill are the *exposed* (post-overlap)
	// remainders of the Compute pipeline depth and the 5-cycle Extend fill
	// of Section 4.3.2, paid once per step: in steady state both pipelines
	// overlap the previous step's drain, so only a small bubble is visible.
	ComputeLatency int
	ExtendFill     int
	// Mem is the memory-controller timing.
	Mem mem.Timing
}

// DefaultTiming returns the calibrated timing constants.
func DefaultTiming() Timing {
	return Timing{
		DispatchOverhead: 35,
		StartupCycles:    4,
		StepOverhead:     1,
		EmptyStepCycles:  1,
		ComputeIssue:     4,
		ComputeLatency:   1,
		ExtendFill:       2,
		Mem:              mem.DefaultTiming,
	}
}

// ChipConfig returns the configuration of the taped-out WFAsic: one Aligner
// with 64 parallel sections, 10K-base reads, k_max 3998 (Section 5).
func ChipConfig() Config {
	return Config{
		Penalties:        align.DefaultPenalties,
		NumAligners:      1,
		ParallelSections: 64,
		MaxReadLenCap:    10000,
		KMax:             3998,
		InputFIFODepth:   256,
		OutputFIFODepth:  256,
		Timing:           DefaultTiming(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Penalties.Validate(); err != nil {
		return err
	}
	if c.NumAligners < 1 {
		return fmt.Errorf("core: NumAligners %d < 1", c.NumAligners)
	}
	if c.ParallelSections < 1 || c.ParallelSections%8 != 0 {
		return fmt.Errorf("core: ParallelSections %d must be a positive multiple of 8", c.ParallelSections)
	}
	if c.MaxReadLenCap < 16 || c.MaxReadLenCap%16 != 0 {
		return fmt.Errorf("core: MaxReadLenCap %d must be a positive multiple of 16", c.MaxReadLenCap)
	}
	if c.KMax < 1 {
		return fmt.Errorf("core: KMax %d < 1", c.KMax)
	}
	if c.InputFIFODepth < 1 || c.OutputFIFODepth < 1 {
		return fmt.Errorf("core: FIFO depths must be positive")
	}
	if err := c.Timing.Mem.Validate(); err != nil {
		return err
	}
	// The read DMA issues whole bursts and throttles on FIFO room, so a
	// FIFO smaller than one burst window could never accept a request.
	if c.InputFIFODepth < c.Timing.Mem.BurstBeats {
		return fmt.Errorf("core: InputFIFODepth %d smaller than the DMA burst of %d beats",
			c.InputFIFODepth, c.Timing.Mem.BurstBeats)
	}
	return nil
}

// ScoreMax is Equation 6: the largest alignment score the wavefront window
// supports, Score_max = k_max*2 + x (the paper states it with x = 4).
// Alignments whose score would exceed this are terminated with Success = 0.
func (c Config) ScoreMax() int {
	return wfa.ScoreMax(c.KMax, c.Penalties)
}

// ErrorBudgetSatisfied is Equation 5: whether a pair with the given
// mismatch / gap-opening / gap-extension counts is within the supported
// score budget:
//
//	Score_max >= num_x*x + num_o*(o+e) + num_e*e
func (c Config) ErrorBudgetSatisfied(numX, numO, numE int) bool {
	p := c.Penalties
	need := numX*p.Mismatch + numO*(p.GapOpen+p.GapExtend) + numE*p.GapExtend
	return need <= c.ScoreMax()
}

// MaxDetectableDifferences returns the worst-case number of differences the
// configuration can always align: Equation 5 assuming every difference is a
// gap opening ("Assuming worst case scenario in which all differences
// between sequences are gap-openings, WFAsic can detect up to 1K
// differences").
func (c Config) MaxDetectableDifferences() int {
	p := c.Penalties
	return c.ScoreMax() / (p.GapOpen + p.GapExtend)
}

// BTBlockBytes is the size of one backtrace block: 5 bits per parallel
// section (Section 4.3.3: 320 bits = 40 bytes for 64 sections).
func (c Config) BTBlockBytes() int {
	return 5 * c.ParallelSections / 8
}

// InputSeqRAMDepth is the per-RAM word count of Section 4.2: the 10K-base
// design needs "at least 627 words (10K / 16 bases per row + 2 words of ID
// and length)".
func (c Config) InputSeqRAMDepth() int {
	return c.MaxReadLenCap/16 + 2
}
