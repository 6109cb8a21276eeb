package soc

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/bt"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/seqio"
)

// SoC is the full system: main memory, memory controller, the WFAsic
// accelerator and the Sargantana CPU cost model.
type SoC struct {
	Cfg     core.Config
	Memory  *mem.Memory
	Machine *core.Machine
	Driver  *Driver
	Costs   cpumodel.Costs
	// Faults is the fault injector attached via EnableFaults (nil when the
	// fault layer is disabled; all uses are nil-safe).
	Faults *fault.Injector

	// sw is the software WFA behind the resilient fallback and the shadow
	// oracle, reused across pairs and runs.
	sw *SoftwareAligner
	// dec and btPairs are the CPU backtrace decoder and its ID->pair map,
	// reused across batches.
	dec     *bt.Decoder
	btPairs map[uint32]seqio.Pair
	// byID maps a resilient batch's result-stream IDs to pair indices, and
	// candidates holds one attempt's decoded results. Both are refilled per
	// batch (per attempt) and cleared after it, so nothing outlives it.
	byID       map[uint32]int
	candidates map[uint32]candidate
}

// inputBase leaves the bottom of memory for the "OS" (flavor only).
const inputBase = 0x1000

// New builds a SoC with memBytes of main memory.
func New(cfg core.Config, memBytes int) (*SoC, error) {
	m, memory, err := core.NewStandaloneMachine(cfg, memBytes)
	if err != nil {
		return nil, err
	}
	return newSoC(cfg, m, memory), nil
}

// newSoC wraps a machine and its main memory in a SoC.
func newSoC(cfg core.Config, m *core.Machine, memory *mem.Memory) *SoC {
	return &SoC{
		Cfg:        cfg,
		Memory:     memory,
		Machine:    m,
		Driver:     NewDriver(m),
		Costs:      cpumodel.DefaultCosts(),
		sw:         NewSoftwareAligner(cfg),
		dec:        bt.NewDecoder(cfg),
		btPairs:    map[uint32]seqio.Pair{},
		byID:       map[uint32]int{},
		candidates: map[uint32]candidate{},
	}
}

// PairOutcome is one alignment's final, CPU-visible result.
type PairOutcome struct {
	ID     uint32
	Result align.Result
}

// Report is the outcome of one co-designed run (Figure 4), with the cycle
// accounting the evaluation uses.
type Report struct {
	Outcomes []PairOutcome
	// AccelCycles is the wall time of the accelerator job (start to idle).
	AccelCycles int64
	// PairTimings are the per-pair reading/alignment cycles (Table 1).
	PairTimings []core.PairTiming
	// CPUBacktraceCycles is the modeled CPU time for the backtrace step
	// (zero when backtrace is disabled).
	CPUBacktraceCycles int64
	// TotalCycles = AccelCycles + CPUBacktraceCycles: the full co-designed
	// pipeline of Figure 4.
	TotalCycles int64
	// OutTransactions is the number of 16-byte result transactions.
	OutTransactions int
	// BTStats is the decoder's work counting (backtrace runs only).
	BTStats bt.Stats
	// Perf is the job's hardware perf counter window (the delta over the
	// machine's monotone counters), read back through the RegPerf* registers.
	Perf perf.Snapshot
}

// RunOptions selects the accelerated execution mode.
type RunOptions struct {
	// Backtrace enables the backtrace stream and the CPU decode step.
	Backtrace bool
	// SeparateData forces the multi-Aligner data-separation method even on
	// single-Aligner hardware (the Figure 11 "[Sep]" configurations). With
	// more than one Aligner separation is always used.
	SeparateData bool
}

// RunAccelerated executes the co-designed flow of Figure 4 on the input set:
// the CPU parses the input into main memory, the accelerator aligns, and —
// with backtrace enabled — the CPU reconstructs the CIGARs from the
// backtrace stream.
func (s *SoC) RunAccelerated(set *seqio.InputSet, opts RunOptions) (*Report, error) {
	img, err := set.BuildImage()
	if err != nil {
		return nil, err
	}
	maxReadLen := set.EffectiveMaxReadLen()
	if maxReadLen > s.Cfg.MaxReadLenCap {
		return nil, fmt.Errorf("soc: input MAX_READ_LEN %d exceeds the hardware cap %d", maxReadLen, s.Cfg.MaxReadLenCap)
	}
	outputAddr := (inputBase + uint64(len(img)) + 15) &^ 15
	if int(outputAddr) >= s.Memory.Size() {
		return nil, fmt.Errorf("soc: %dB of memory cannot hold a %dB input image", s.Memory.Size(), len(img))
	}
	s.Memory.Write(inputBase, img)

	job := JobConfig{
		InputAddr:  inputBase,
		OutputAddr: outputAddr,
		NumPairs:   len(set.Pairs),
		MaxReadLen: maxReadLen,
		Backtrace:  opts.Backtrace,
	}
	if err := s.Driver.Configure(job); err != nil {
		return nil, err
	}
	perfBase, err := s.Driver.PerfSnapshot()
	if err != nil {
		return nil, err
	}
	if err := s.Driver.Start(); err != nil {
		return nil, err
	}
	var cycles int64
	if err := s.protectOOM(func() error {
		var runErr error
		cycles, runErr = s.Driver.PollIdle(DefaultRunMaxCycles)
		return runErr
	}); err != nil {
		return nil, err
	}

	rep := &Report{AccelCycles: cycles}
	rep.PairTimings = append(rep.PairTimings, s.Machine.Timings...)
	perfNow, err := s.Driver.PerfSnapshot()
	if err != nil {
		return nil, err
	}
	rep.Perf = perfNow.Delta(perfBase)
	count, err := s.Driver.OutCount()
	if err != nil {
		return nil, err
	}
	rep.OutTransactions = count
	// Read in place: the records and the backtrace are decoded before
	// RunAccelerated returns, and no decoded result aliases raw.
	raw := s.Memory.View(int64(outputAddr), count*mem.BeatBytes)

	if !opts.Backtrace {
		// NBT records: the first NumPairs records are real; the final
		// transaction may carry zero padding.
		for i := 0; i < len(set.Pairs); i++ {
			rec, err := core.UnpackNBTRecord(raw[i*core.NBTRecordBytes:])
			if err != nil {
				return nil, err
			}
			rep.Outcomes = append(rep.Outcomes, PairOutcome{
				ID: uint32(rec.ID),
				Result: align.Result{
					Score:   int(rec.Score),
					Success: rec.Success,
				},
			})
		}
		rep.TotalCycles = rep.AccelCycles
		return rep, nil
	}

	alignments, btStats, btCycles, err := s.decodeBacktrace(set, raw, count, opts.SeparateData)
	if err != nil {
		return nil, err
	}
	for _, al := range alignments {
		rep.Outcomes = append(rep.Outcomes, PairOutcome{ID: al.ID, Result: al.Result})
	}
	rep.BTStats = btStats
	rep.CPUBacktraceCycles = btCycles
	rep.TotalCycles = rep.AccelCycles + rep.CPUBacktraceCycles
	return rep, nil
}

// decodeBacktrace is the CPU backtrace step (Section 4.5): it decodes the
// count-transaction backtrace region raw of a completed job over set and
// prices the decode on the CPU model. Multi-Aligner hardware always needs
// the data-separation method; forceSeparate selects it on a single Aligner
// too.
func (s *SoC) decodeBacktrace(set *seqio.InputSet, raw []byte, count int, forceSeparate bool) ([]bt.Alignment, bt.Stats, int64, error) {
	separate := forceSeparate || s.Cfg.NumAligners > 1
	for _, p := range set.Pairs {
		s.btPairs[p.ID&core.BTIDMask] = p
	}
	alignments, st, err := s.dec.DecodeRegion(raw, count, s.btPairs, separate)
	clear(s.btPairs) // hold no sequences past the batch
	if err != nil {
		return nil, st, 0, err
	}
	cycles := s.Costs.BacktraceCycles(cpumodel.BTStats{
		TransactionsScanned: st.TransactionsScanned,
		SeparatedBytes:      st.SeparatedBytes,
		RangeSteps:          st.RangeSteps,
		WalkSteps:           st.WalkSteps,
		MatchesInserted:     st.MatchesInserted,
	}, separate)
	return alignments, st, cycles, nil
}

// protectOOM converts the memory model's out-of-bounds panic (an output
// region overflowing the allotted memory) into an error.
func (s *SoC) protectOOM(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("soc: accelerator run aborted: %v (is main memory large enough for the backtrace output?)", r)
		}
	}()
	return f()
}
