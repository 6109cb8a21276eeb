package soc

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/seqio"
)

// Accelerator run bounds.
const (
	// DefaultMaxAttempts is the reset-and-resubmit bound when
	// ResilientOptions.MaxAttempts is zero. Explicit values are validated by
	// ResilientOptions.Validate: negative values are errors, never silent
	// clamps.
	DefaultMaxAttempts = 3
	// DefaultRunMaxCycles is the cycle budget of every accelerator run
	// (hang protection behind the watchdog).
	DefaultRunMaxCycles = 100_000_000_000
)

// ResilientOptions configures RunResilient.
type ResilientOptions struct {
	// Backtrace enables the backtrace stream and the CPU decode step.
	Backtrace bool
	// MaxAttempts bounds the reset-and-resubmit loop; 0 means
	// DefaultMaxAttempts. Negative values are rejected by Validate.
	MaxAttempts int
	// UseIRQ completes attempts through the interrupt path instead of
	// polling, exercising the lost-IRQ recovery.
	UseIRQ bool
	// Verify selects the integrity-verification policy (internal/integrity):
	// the zero value is ModeWitness — cheap per-pair witnesses, hardware SDC
	// evidence discard and the post-job readback audit are ON by default and
	// must be disabled explicitly with ModeOff. ModeSampled adds a
	// deterministic seeded sample of full software shadow verifications at
	// Verify.Rate; ModeFull shadows every pair.
	Verify integrity.Policy
}

// Validate rejects invalid option values and combinations. The zero value of
// every knob selects a documented default; everything else must be usable
// exactly as written — RunResilient never silently clamps.
func (o ResilientOptions) Validate() error {
	_, err := o.resolve()
	return err
}

// resilientParams are the resolved (defaulted, validated) option values.
type resilientParams struct {
	maxAttempts int
	verifyMode  integrity.Mode
	permyriad   int // shadow-sample rate in 1/10000 units (ModeSampled)
	verifySeed  uint64
}

func (o ResilientOptions) resolve() (resilientParams, error) {
	var p resilientParams
	if o.MaxAttempts < 0 {
		return p, fmt.Errorf("soc: MaxAttempts %d is negative (0 selects the default of %d)", o.MaxAttempts, DefaultMaxAttempts)
	}
	p.maxAttempts = o.MaxAttempts
	if p.maxAttempts == 0 {
		p.maxAttempts = DefaultMaxAttempts
	}
	if err := o.Verify.Validate(); err != nil {
		return p, err
	}
	p.verifyMode = o.Verify.Mode
	p.permyriad = o.Verify.Permyriad()
	p.verifySeed = o.Verify.Seed
	return p, nil
}

// ResilientReport records what RunResilient did: the final per-pair
// outcomes (input order) plus fault, recovery and fallback accounting.
type ResilientReport struct {
	Outcomes []PairOutcome

	Attempts          int // hardware submissions, including the first
	Retries           int // resubmissions after a failed attempt
	Resets            int // soft resets issued
	HangErrors        int // attempts ended by the watchdog or cycle budget
	BusErrors         int // attempts ended by an AXI error response
	ConfigRejects     int // attempts rejected at Start
	IRQRecoveries     int // completions salvaged after a dropped interrupt
	DecodeFailures    int // attempts whose output stream would not parse
	ValidationRejects int // per-pair results rejected by sanity checks

	HardwarePairs int // pairs whose accepted result came from the accelerator
	FallbackPairs int // pairs aligned by the software WFA after retries

	// Integrity accounting (the SDC defense, internal/integrity). Witness
	// and shadow rejections are also counted in ValidationRejects; the
	// hardware-evidence counters stand alone because a tainted attempt is
	// discarded wholesale before any per-pair validation runs.
	WitnessChecks     int // per-pair result-witness evaluations
	WitnessRejects    int // results rejected by a plausibility/replay witness
	ShadowSampled     int // pairs selected for sampled shadow verification
	ShadowMismatches  int // shadow verifications that disagreed with the oracle
	HwSDCInput        int // ingest CRC witness trips read back from RegSDCInput
	HwSDCWavefront    int // wavefront parity trips read back from RegSDCWavefront
	OutCRCMismatches  int // attempts whose output stream disagreed with RegOutCRC
	IntegrityDiscards int // attempts discarded wholesale on hardware SDC evidence
	AuditRuns         int // post-job readback audits of the input image
	AuditFailures     int // pairs whose stored input image failed the audit

	AccelCycles        int64 // accelerator cycles summed over every attempt
	CPUBacktraceCycles int64 // modeled CPU cycles decoding backtrace streams
	CPUFallbackCycles  int64 // modeled CPU cycles for software fallback
	IntegrityCycles    int64 // modeled CPU cycles for witnesses, CRC checks and shadows
	TotalCycles        int64 // AccelCycles + CPUBacktraceCycles + CPUFallbackCycles + IntegrityCycles

	// FaultEvents / FaultCounts describe the faults injected during this
	// run (deltas over the SoC's injector, which accumulates across runs).
	FaultEvents int64
	FaultCounts map[fault.Kind]int64

	// Perf is the run's hardware perf counter window (the delta over the
	// machine's monotone counters, summed over every attempt), read back
	// through the RegPerf* registers.
	Perf perf.Snapshot
}

// EnableFaults builds an injector from cfg and attaches it to the machine,
// the memory controller and the aligners. A zero-probability config keeps
// the SoC cycle-for-cycle identical to one without an injector.
func (s *SoC) EnableFaults(cfg fault.Config) error {
	j, err := fault.New(cfg)
	if err != nil {
		return err
	}
	s.Faults = j
	s.Machine.AttachInjector(j)
	return nil
}

// swResult caches one pair's software alignment (the oracle and the
// fallback share it, so each pair is software-aligned at most once).
type swResult struct {
	res   align.Result
	stats cpumodel.WFAStats
	done  bool
}

// verifier bundles the resolved integrity policy with the per-config score
// bounds so the attempt/validation path does not re-derive them per pair.
type verifier struct {
	mode      integrity.Mode
	permyriad int
	seed      uint64
	bounds    integrity.Bounds
}

// RunResilient is the fault-tolerant counterpart of RunAccelerated: it
// submits the set to the accelerator, classifies failures through the
// driver's sentinel errors, retries with reset-and-resubmit up to
// MaxAttempts, validates every per-pair result against the Config penalty
// bounds (and the software oracle as the Verify policy selects), and finally
// degrades to the pure-software WFA for any pair the hardware could not
// deliver. The returned report always covers every input pair.
func (s *SoC) RunResilient(set *seqio.InputSet, opts ResilientOptions) (*ResilientReport, error) {
	return s.RunResilientCtx(context.Background(), set, opts)
}

// RunResilientCtx is RunResilient under a caller deadline. The context is
// plumbed end to end: it aborts the in-flight hardware attempt (the
// machine's run loop polls it), the retry/reset ladder between attempts, and
// the IRQ-loss salvage path. A cancelled run returns an error wrapping
// ErrDeadline after best-effort soft-resetting the device so it stays
// reusable; no report is returned (the caller's request is dead — partial
// results would only invite double-answering). The software fallback is NOT
// taken for a cancelled request: degrading is for hardware failures, not for
// callers that already stopped listening.
func (s *SoC) RunResilientCtx(ctx context.Context, set *seqio.InputSet, opts ResilientOptions) (*ResilientReport, error) {
	if len(set.Pairs) == 0 {
		return nil, fmt.Errorf("soc: empty input set")
	}
	idMask := uint32(0xFFFF)
	if opts.Backtrace {
		idMask = core.BTIDMask
	}
	defer clear(s.byID)
	for i, p := range set.Pairs {
		if prev, dup := s.byID[p.ID&idMask]; dup {
			return nil, fmt.Errorf("soc: pair IDs %d and %d collide in the result stream's truncated ID field (mask %#x)",
				set.Pairs[prev].ID, p.ID, idMask)
		}
		s.byID[p.ID&idMask] = i
	}

	rep := &ResilientReport{Outcomes: make([]PairOutcome, len(set.Pairs))}
	p, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	v := verifier{
		mode:      p.verifyMode,
		permyriad: p.permyriad,
		seed:      p.verifySeed,
		bounds:    integrity.NewBounds(s.Cfg.Penalties, s.Cfg.ScoreMax(), s.Cfg.KMax),
	}
	faultBase := s.Faults.Total()
	countBase := s.Faults.Counts()
	perfBase, err := s.Driver.PerfSnapshot()
	if err != nil {
		return nil, err
	}

	sw := make([]swResult, len(set.Pairs))
	accepted := make([]bool, len(set.Pairs))
	acceptedCount := 0

	img, err := set.BuildImage()
	if err != nil {
		return nil, err
	}
	maxReadLen := set.EffectiveMaxReadLen()
	outputAddr := (inputBase + uint64(len(img)) + 15) &^ 15
	hwViable := maxReadLen <= s.Cfg.MaxReadLenCap && int(outputAddr) < s.Memory.Size()

	if hwViable {
		s.Memory.Write(inputBase, img)
		job := JobConfig{
			InputAddr:  inputBase,
			OutputAddr: outputAddr,
			NumPairs:   len(set.Pairs),
			MaxReadLen: maxReadLen,
			Backtrace:  opts.Backtrace,
			EnableIRQ:  opts.UseIRQ,
		}
		for attempt := 1; attempt <= p.maxAttempts && acceptedCount < len(set.Pairs); attempt++ {
			if ctxErr := ctx.Err(); ctxErr != nil {
				// The deadline landed between attempts: the device is idle
				// (the previous attempt was reset), so just abort the ladder.
				return nil, fmt.Errorf("%w: %w", ErrDeadline, ctxErr)
			}
			if attempt > 1 {
				rep.Retries++
			}
			rep.Attempts++
			// Kill stale bytes from earlier attempts so a truncated stream
			// reads as padding, never as a previous attempt's records.
			s.zeroFrom(int64(outputAddr))
			ok, fatal := s.runAttempt(ctx, set, job, opts, v, sw, accepted, &acceptedCount, rep)
			if fatal != nil {
				if errors.Is(fatal, ErrDeadline) {
					// Job abort: the machine is mid-job; soft-reset so the
					// device stays reusable, then surface the deadline.
					if rerr := s.Driver.Reset(); rerr != nil {
						return nil, fmt.Errorf("%w (and the post-abort reset failed: %w)", fatal, rerr)
					}
					rep.Resets++
				}
				return nil, fatal
			}
			if acceptedCount == len(set.Pairs) {
				break
			}
			if !ok {
				// Deterministic rejection: resubmitting cannot help.
				break
			}
			if err := s.Driver.Reset(); err != nil {
				return nil, err
			}
			rep.Resets++
		}
	}

	if hwViable && v.mode != integrity.ModeOff {
		// Post-job readback audit: re-verify every pair's stored witness
		// over the input image as it now sits in main memory. This is the
		// at-rest leg of the defense — a bit flip in DRAM after job build
		// invalidates the results read from that block, so any accepted
		// result of an audited-bad pair is withdrawn and escalated to the
		// software tier.
		rep.AuditRuns++
		rep.IntegrityCycles += s.Costs.CRCCycles(int64(len(img)))
		for _, i := range seqio.AuditImage(s.Memory.View(inputBase, len(img)), maxReadLen, len(set.Pairs)) {
			rep.AuditFailures++
			if accepted[i] {
				accepted[i] = false
				acceptedCount--
			}
		}
	}

	// Graceful degradation: the software WFA aligns whatever the hardware
	// could not deliver.
	for i, p := range set.Pairs {
		if accepted[i] {
			rep.HardwarePairs++
			continue
		}
		r := s.software(i, p, opts.Backtrace, sw)
		rep.Outcomes[i] = PairOutcome{ID: p.ID, Result: r.res}
		rep.CPUFallbackCycles += s.Costs.ScalarWFACycles(r.stats)
		rep.FallbackPairs++
	}

	rep.TotalCycles = rep.AccelCycles + rep.CPUBacktraceCycles + rep.CPUFallbackCycles + rep.IntegrityCycles
	perfNow, err := s.Driver.PerfSnapshot()
	if err != nil {
		return nil, err
	}
	rep.Perf = perfNow.Delta(perfBase)
	rep.FaultEvents = s.Faults.Total() - faultBase
	rep.FaultCounts = map[fault.Kind]int64{}
	for k, n := range s.Faults.Counts() {
		if d := n - countBase[k]; d > 0 {
			rep.FaultCounts[k] = d
		}
	}
	return rep, nil
}

// runAttempt performs one configure/start/wait/parse/validate round.
// ok=false means the failure is deterministic and retrying is pointless;
// fatal is a driver-level error that should abort RunResilient itself
// (including a context expiry, which surfaces as ErrDeadline).
func (s *SoC) runAttempt(ctx context.Context, set *seqio.InputSet, job JobConfig, opts ResilientOptions,
	v verifier, sw []swResult,
	accepted []bool, acceptedCount *int, rep *ResilientReport) (ok bool, fatal error) {

	if err := s.Driver.Configure(job); err != nil {
		return false, err
	}
	if err := s.Driver.Start(); err != nil {
		return false, err
	}
	var cycles int64
	err := s.protectOOM(func() error {
		var runErr error
		if opts.UseIRQ {
			cycles, runErr = s.Driver.WaitIRQCtx(ctx, DefaultRunMaxCycles)
		} else {
			cycles, runErr = s.Driver.PollIdleCtx(ctx, DefaultRunMaxCycles)
		}
		return runErr
	})
	rep.AccelCycles += cycles
	switch {
	case err == nil:
	case errors.Is(err, ErrDeadline):
		return false, err
	case errors.Is(err, ErrIRQMissing):
		// The job itself completed (PollIdle inside WaitIRQ saw Idle without
		// Error) — only the interrupt was lost. Salvage the results.
		rep.IRQRecoveries++
	case errors.Is(err, ErrJobRejected):
		rep.ConfigRejects++
		return false, nil
	case errors.Is(err, ErrBusFault):
		rep.BusErrors++
		if clearErr := s.Driver.ClearError(); clearErr != nil {
			return false, clearErr
		}
		return true, nil
	case errors.Is(err, ErrHang):
		rep.HangErrors++
		return true, nil
	default:
		// Memory-model panics (output overflow) and any unclassified
		// failure: worth one more try after a reset.
		rep.DecodeFailures++
		return true, nil
	}

	count, err := s.Driver.OutCount()
	if err != nil {
		return false, err
	}
	if avail := (s.Memory.Size() - int(job.OutputAddr)) / mem.BeatBytes; count > avail {
		count = avail
	}
	// Read in place: the CRC gate and parseOutput finish with raw before
	// the next attempt clears the output region, and no decoded result
	// aliases it.
	raw := s.Memory.View(int64(job.OutputAddr), count*mem.BeatBytes)

	if v.mode != integrity.ModeOff {
		// Hardware SDC evidence gate: an attempt with any latched witness
		// trip is tainted wholesale and discarded before per-pair validation.
		// This is what makes the defense sound — a detected input flip turns
		// an alignable pair into a plausible-looking failure that per-pair
		// witnesses could not distinguish from a genuine one.
		sdcIn, err := s.Driver.SDCInput()
		if err != nil {
			return false, err
		}
		sdcWF, err := s.Driver.SDCWavefront()
		if err != nil {
			return false, err
		}
		hwCRC, err := s.Driver.OutCRC()
		if err != nil {
			return false, err
		}
		rep.IntegrityCycles += s.Costs.CRCCycles(int64(len(raw)))
		crcBad := integrity.CRC(raw) != hwCRC
		if sdcIn > 0 || sdcWF > 0 || crcBad {
			rep.HwSDCInput += sdcIn
			rep.HwSDCWavefront += sdcWF
			if crcBad {
				rep.OutCRCMismatches++
			}
			rep.IntegrityDiscards++
			return true, nil
		}
	}

	defer clear(s.candidates) // hold no results past the attempt
	if !s.parseOutput(set, raw, count, opts, rep) {
		rep.DecodeFailures++
		return true, nil
	}
	for id, cand := range s.candidates {
		i := s.byID[id]
		if accepted[i] {
			// An earlier attempt already delivered this pair; keep it.
			continue
		}
		if !cand.valid || !s.validateOutcome(i, set.Pairs[i], cand.out, opts, v, sw, rep) {
			rep.ValidationRejects++
			continue
		}
		accepted[i] = true
		*acceptedCount++
		rep.Outcomes[i] = cand.out
	}
	return true, nil
}

// candidate is one decoded result; valid=false marks duplicates within the
// same stream (two records claiming one ID means the stream is corrupt).
type candidate struct {
	out   PairOutcome
	valid bool
}

// parseOutput decodes the raw output region of a completed attempt (read
// back by runAttempt, which also CRC-gates it) into per-pair candidates in
// s.candidates, keyed by the result-stream IDs of s.byID. decodeOK=false
// means the stream as a whole was unusable. Decoder panics on corrupt
// streams are converted to decode failures.
func (s *SoC) parseOutput(set *seqio.InputSet, raw []byte, count int, opts ResilientOptions,
	rep *ResilientReport) (decodeOK bool) {
	defer func() {
		if r := recover(); r != nil {
			decodeOK = false
		}
	}()

	if !opts.Backtrace {
		// Scan every record slot: with dropped beats the stream shifts, so
		// record position is meaningless — only the embedded IDs count.
		// Unknown IDs are padding or corruption and are skipped.
		for i := 0; i < count*core.NBTPerTransaction; i++ {
			rec, err := core.UnpackNBTRecord(raw[i*core.NBTRecordBytes:])
			if err != nil {
				continue
			}
			s.addCandidate(set, uint32(rec.ID), align.Result{Score: int(rec.Score), Success: rec.Success})
		}
		return true
	}

	alignments, _, btCycles, err := s.decodeBacktrace(set, raw, count, false)
	if err != nil {
		return false
	}
	rep.CPUBacktraceCycles += btCycles
	for _, al := range alignments {
		s.addCandidate(set, al.ID&core.BTIDMask, al.Result)
	}
	return true
}

// addCandidate records the decoded result of stream ID id. An ID the batch
// does not hold is padding or corruption and is skipped; a second result
// for one ID invalidates it, since two records claiming one ID mean the
// stream is corrupt.
func (s *SoC) addCandidate(set *seqio.InputSet, id uint32, res align.Result) {
	i, known := s.byID[id]
	if !known {
		return
	}
	if _, dup := s.candidates[id]; dup {
		s.candidates[id] = candidate{valid: false}
		return
	}
	s.candidates[id] = candidate{out: PairOutcome{ID: set.Pairs[i].ID, Result: res}, valid: true}
}

// validateOutcome is the per-pair acceptance gate. Under ModeOff it applies
// the legacy structural checks only; otherwise it runs the integrity result
// witnesses (score-plausibility bounds, failure plausibility, CIGAR replay)
// and — under ModeFull, or ModeSampled when the deterministic sampler selects
// the pair — a full software shadow verification against the oracle.
func (s *SoC) validateOutcome(i int, p seqio.Pair, out PairOutcome, opts ResilientOptions,
	v verifier, sw []swResult, rep *ResilientReport) bool {
	res := out.Result
	if v.mode == integrity.ModeOff {
		if res.Success {
			pen := s.Cfg.Penalties
			if res.Score < 0 || res.Score > s.Cfg.ScoreMax() {
				return false
			}
			d := len(p.A) - len(p.B)
			if d < 0 {
				d = -d
			}
			if d > 0 && res.Score < pen.GapOpen+d*pen.GapExtend {
				// Any alignment of length-mismatched reads opens at least one
				// gap and extends it d times.
				return false
			}
			if res.Score == 0 && !bytes.Equal(p.A, p.B) {
				return false
			}
			if opts.Backtrace {
				// The CIGAR is its own witness: it must replay over the pair
				// and re-price to the reported score.
				if res.CIGAR.Validate(p.A, p.B) != nil || res.CIGAR.Score(pen) != res.Score {
					return false
				}
			}
		}
		return true
	}

	supported := pairSupported(s.Cfg, p)
	rep.WitnessChecks++
	rep.IntegrityCycles += s.Costs.ResultWitnessCycles(int64(len(res.CIGAR)))
	if res.Success {
		if v.bounds.CheckSuccess(p.A, p.B, res.Score, supported) != nil {
			rep.WitnessRejects++
			return false
		}
		if opts.Backtrace {
			if integrity.CheckCIGAR(res.CIGAR, p.A, p.B, res.Score, s.Cfg.Penalties) != nil {
				rep.WitnessRejects++
				return false
			}
		}
	} else if v.bounds.CheckFailure(len(p.A), len(p.B), supported) != nil {
		rep.WitnessRejects++
		return false
	}

	shadow := v.mode == integrity.ModeFull
	if v.mode == integrity.ModeSampled && integrity.Sample(v.seed, p.ID, v.permyriad) {
		shadow = true
		rep.ShadowSampled++
	}
	if shadow {
		r := s.software(i, p, opts.Backtrace, sw)
		rep.IntegrityCycles += s.Costs.ScalarWFACycles(r.stats)
		if r.res.Success != res.Success || (res.Success && r.res.Score != res.Score) {
			rep.ShadowMismatches++
			return false
		}
	}
	return true
}

// software returns pair i's software alignment, computing and caching it on
// first use (the oracle and the fallback share the cache).
func (s *SoC) software(i int, p seqio.Pair, withCIGAR bool, sw []swResult) swResult {
	if !sw[i].done {
		sw[i] = s.alignSoftware(p, withCIGAR)
		sw[i].done = true
	}
	return sw[i]
}

// alignSoftware aligns one pair on the SoC's reused software aligner.
func (s *SoC) alignSoftware(p seqio.Pair, withCIGAR bool) swResult {
	res, stats := s.sw.Align(p, withCIGAR)
	return swResult{res: res, stats: stats}
}

// zeroFrom clears main memory from addr to the end, in place. The memory's
// dirty watermark bounds the work to what was written since the last wipe.
func (s *SoC) zeroFrom(addr int64) {
	n := s.Memory.Size() - int(addr)
	if n <= 0 {
		return
	}
	s.Memory.Zero(addr, n)
}
