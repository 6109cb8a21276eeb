package soc

import (
	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/mem"
	"repro/internal/seqio"
	"repro/internal/swg"
	"repro/internal/wfa"
)

// CPUMode selects the software implementation the Sargantana core runs.
type CPUMode int

// The CPU execution modes of Figure 9.
const (
	// CPUScalar is the scalar WFA C implementation [14] — the baseline all
	// speedups are computed against.
	CPUScalar CPUMode = iota
	// CPUVector uses the RVV 0.7.1 SIMD unit for extend() and compute().
	CPUVector
	// CPUSWG runs the full-DP Smith-Waterman-Gotoh (Section 2.2) — not in
	// Figure 9, but the classical reference point.
	CPUSWG
)

// String names the CPU baseline the way the Figure 9 legend does.
func (m CPUMode) String() string {
	switch m {
	case CPUScalar:
		return "WFA-CPU scalar"
	case CPUVector:
		return "WFA-CPU vector"
	case CPUSWG:
		return "SWG-CPU"
	}
	return "?"
}

// CPUReport is the outcome of a pure-CPU run with modeled cycles.
type CPUReport struct {
	Outcomes  []PairOutcome
	Cycles    int64   // total modeled Sargantana cycles
	PerPair   []int64 // per-pair cycles, input order
	WFATotals cpumodel.WFAStats
}

// RunCPU executes the input set entirely on the modeled CPU. withBacktrace
// requests full CIGARs (the WFA keeps all wavefronts, matching the large
// memory footprint the paper attributes to the CPU implementation).
func (s *SoC) RunCPU(set *seqio.InputSet, mode CPUMode, withBacktrace bool) (*CPUReport, error) {
	rep := &CPUReport{}
	for _, p := range set.Pairs {
		var cycles int64
		var outcome align.Result
		switch mode {
		case CPUScalar, CPUVector:
			res, st, err := wfa.Align(p.A, p.B, s.Cfg.Penalties, wfa.Options{WithCIGAR: withBacktrace})
			if err != nil {
				return nil, err
			}
			ws := wfaStats(st)
			if mode == CPUScalar {
				cycles = s.Costs.ScalarWFACycles(ws)
			} else {
				cycles = s.Costs.VectorWFACycles(ws)
			}
			rep.WFATotals.ScoreSteps += ws.ScoreSteps
			rep.WFATotals.CellsComputed += ws.CellsComputed
			rep.WFATotals.BasesCompared += ws.BasesCompared
			rep.WFATotals.Blocks16 += ws.Blocks16
			rep.WFATotals.WavefrontBytes += ws.WavefrontBytes
			outcome = res
		case CPUSWG:
			if withBacktrace {
				res, st := swg.Align(p.A, p.B, s.Cfg.Penalties)
				cycles = s.Costs.SWGCycles(st.CellsComputed)
				outcome = res
			} else {
				score, st := swg.Score(p.A, p.B, s.Cfg.Penalties)
				cycles = s.Costs.SWGCycles(st.CellsComputed)
				outcome = align.Result{Score: score, Success: true}
			}
		}
		rep.Outcomes = append(rep.Outcomes, PairOutcome{ID: p.ID, Result: outcome})
		rep.PerPair = append(rep.PerPair, cycles)
		rep.Cycles += cycles
	}
	return rep, nil
}

// EstimateBTOutputBytes predicts the exact backtrace-region footprint of a
// set (used to size main memory before a backtrace-enabled run). It runs the
// score-only software WFA per pair and sizes each stream from its score with
// one reused core.BTLayout.
func (s *SoC) EstimateBTOutputBytes(set *seqio.InputSet) (int, error) {
	var layout core.BTLayout
	total := 0
	for _, p := range set.Pairs {
		res, _, err := wfa.Align(p.A, p.B, s.Cfg.Penalties, wfa.Options{MaxK: s.Cfg.KMax})
		if err != nil {
			return 0, err
		}
		if !res.Success {
			total += mem.BeatBytes // lone score record
			continue
		}
		// The payload transactions, then the score record.
		total += (layout.Fill(s.Cfg, len(p.A), len(p.B), res.Score) + 1) * mem.BeatBytes
	}
	return total, nil
}
