package soc

import (
	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/seqio"
	"repro/internal/wfa"
)

// pairSupported is the software-visible notion of "the hardware can process
// this pair at all": both reads within the hardware's length cap and drawn
// from the accelerator alphabet. SoftwareAligner fails every other pair, and
// the integrity witnesses use the same predicate to judge whether a reported
// failure is plausible.
func pairSupported(cfg core.Config, p seqio.Pair) bool {
	return len(p.A) <= cfg.MaxReadLenCap && len(p.B) <= cfg.MaxReadLenCap &&
		seqio.ValidateSequence(p.A) == nil && seqio.ValidateSequence(p.B) == nil
}

// SoftwareAligner reproduces the accelerator's per-pair semantics in pure
// software: unsupported reads (over the hardware cap or containing unknown
// bases) fail with Success = false, everything else runs the WFA under the
// hardware's k_max window. It is the one definition of "the right answer"
// shared by the resilient fallback, the Verify shadow oracle and the
// software-worker tier of internal/serve — which is what makes the hardware
// and software paths interchangeable pair-by-pair.
//
// It keeps one score-only and one CIGAR wfa.Aligner across calls, each built
// on first use, so their wavefront pools and backtrace scratch are recycled
// from pair to pair. It is not safe for concurrent use: each SoC and each
// serve software worker owns one.
type SoftwareAligner struct {
	cfg   core.Config
	score *wfa.Aligner
	cigar *wfa.Aligner
}

// NewSoftwareAligner returns a SoftwareAligner for cfg's penalties, read-length
// cap and k_max. Invalid penalties are not an error here: every Align call
// then fails the pair, as the one-shot SoftwareAlign does.
func NewSoftwareAligner(cfg core.Config) *SoftwareAligner {
	return &SoftwareAligner{cfg: cfg}
}

// Align aligns one pair, with the CIGAR when withCIGAR is set.
//
//vet:hotpath
func (sa *SoftwareAligner) Align(p seqio.Pair, withCIGAR bool) (align.Result, cpumodel.WFAStats) {
	if !pairSupported(sa.cfg, p) {
		return align.Result{Success: false}, cpumodel.WFAStats{}
	}
	al := sa.aligner(withCIGAR)
	if al == nil {
		return align.Result{Success: false}, cpumodel.WFAStats{}
	}
	res := al.Run(p.A, p.B)
	return res, wfaStats(al.Stats)
}

// wfaStats is the CPU cost model's view of one software-WFA run.
func wfaStats(st wfa.Stats) cpumodel.WFAStats {
	return cpumodel.WFAStats{
		ScoreSteps:     st.ScoreSteps,
		CellsComputed:  st.CellsComputed,
		BasesCompared:  st.BasesCompared,
		Blocks16:       st.Blocks16,
		WavefrontBytes: st.WavefrontBytes,
	}
}

// aligner returns the WFA aligner for the mode, building it on first use. It
// returns nil when the penalties are invalid.
func (sa *SoftwareAligner) aligner(withCIGAR bool) *wfa.Aligner {
	slot := &sa.score
	if withCIGAR {
		slot = &sa.cigar
	}
	if *slot == nil {
		al, err := wfa.New(sa.cfg.Penalties, wfa.Options{WithCIGAR: withCIGAR, MaxK: sa.cfg.KMax})
		if err != nil {
			return nil
		}
		*slot = al
	}
	return *slot
}

// SoftwareAlign is the one-shot form of SoftwareAligner.Align: it builds a
// fresh aligner for the single pair. Loops over many pairs should keep a
// SoftwareAligner instead.
func SoftwareAlign(cfg core.Config, p seqio.Pair, withCIGAR bool) (align.Result, cpumodel.WFAStats) {
	return NewSoftwareAligner(cfg).Align(p, withCIGAR)
}
