package core

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/mem"
	"repro/internal/seqio"
	"repro/internal/sim"
)

// PairTiming is the per-pair cycle measurement the evaluation reports
// (Table 1): how long the pair took to read into the Aligner and how long
// the alignment itself ran.
type PairTiming struct {
	ID            uint32
	Success       bool
	Score         int
	ReadingCycles int64
	AlignCycles   int64
	// Aligner, StartCycle and FinishCycle place the pair on the activity
	// timeline (the Chrome-trace export): which Aligner ran it and the
	// absolute machine cycles its alignment spanned.
	Aligner     int
	StartCycle  int64
	FinishCycle int64
}

// Machine is the WFAsic accelerator attached to the memory system — the full
// datapath of Figure 5. The CPU side talks to it only through the register
// file and main memory, as on the real SoC.
type Machine struct {
	cfg    Config
	Regs   *RegFile
	memory *mem.Memory

	ctl    *mem.Controller
	rdPort *mem.Port
	wrPort *mem.Port

	inFIFO  *sim.FIFO[[mem.BeatBytes]byte]
	outFIFO *sim.FIFO[[mem.BeatBytes]byte]

	extractor *Extractor
	collector *Collector
	aligners  []*AlignerHW

	cycle    int64
	jobStart int64
	running  bool

	// sdcInputBase / sdcWavefrontBase snapshot the monotone SDC stats at
	// job start so RegSDCInput/RegSDCWavefront report per-job deltas.
	sdcInputBase     int64
	sdcWavefrontBase int64

	// DMA read engine state.
	readAddr      int64
	readBeatsLeft int
	outstanding   int

	// DMA write engine state.
	writeAddr int64
	writeBuf  [][mem.BeatBytes]byte

	// Fault handling. pendingAbort is staged by the DMA engines mid-tick
	// and consumed at the end of the same Tick.
	inj          *fault.Injector
	pendingAbort bool
	abortCode    uint32
	abortAddr    uint64

	// Results.
	Timings []PairTiming

	tracer Tracer

	// onResult is m.recordResult bound once at construction, so job starts
	// can hand it to the collector without allocating a method value.
	onResult func(uint32, ScoreRecord, *AlignerHW)

	// Machine-level perf counters, monotone over the machine's lifetime (the
	// perf layer windows them with snapshot deltas). Pure observation: no
	// Tick decision ever reads them.
	perfJobs         int64
	perfRejects      int64
	perfAborts       int64
	perfSoftResets   int64
	rdThrottleCycles int64 // running cycles with input left but no FIFO room for a burst
	wrBacklogCycles  int64 // running cycles with staged write beats awaiting a burst

	// FIFO occupancy sampling (EnablePerfSampling; off by default).
	sampleEvery int64
	occIn       []int64
	occOut      []int64
	occSamples  []OccSample

	// probes is the hardware perf counter index space (see perf.go).
	probes []perfProbe
}

// NewMachine builds the accelerator over an existing memory and controller
// (shared with the CPU model on the SoC).
func NewMachine(cfg Config, memory *mem.Memory, ctl *mem.Controller) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:     cfg,
		Regs:    NewRegFile(),
		memory:  memory,
		ctl:     ctl,
		rdPort:  ctl.NewPort("wfasic-dma-rd"),
		wrPort:  ctl.NewPort("wfasic-dma-wr"),
		inFIFO:  sim.NewFIFO[[mem.BeatBytes]byte](cfg.InputFIFODepth),
		outFIFO: sim.NewFIFO[[mem.BeatBytes]byte](cfg.OutputFIFODepth),
	}
	for i := 0; i < cfg.NumAligners; i++ {
		m.aligners = append(m.aligners, NewAlignerHW(cfg, i))
	}
	m.extractor = NewExtractor(cfg, m.inFIFO, m.aligners)
	m.collector = NewCollector(cfg, m.outFIFO, m.aligners)
	m.extractor.onDispatch = m.onPairDispatch
	m.onResult = m.recordResult
	m.buildProbes()
	m.Regs.AttachPerf(m)
	// In -tags invariantdebug builds, core invariant Violations carry the
	// machine's cycle counter (no-op and free in release builds).
	invariant.RegisterContext("core", func() string {
		return fmt.Sprintf("cycle=%d", m.cycle)
	})
	return m, nil
}

// NewStandaloneMachine builds a machine with its own memory of the given
// size (convenience for tests and single-accelerator benchmarks).
func NewStandaloneMachine(cfg Config, memBytes int) (*Machine, *mem.Memory, error) {
	memory := mem.NewMemory(memBytes)
	ctl := mem.NewController(memory, cfg.Timing.Mem)
	m, err := NewMachine(cfg, memory, ctl)
	if err != nil {
		return nil, nil, err
	}
	return m, memory, nil
}

// AttachInjector connects a fault injector to the machine, the memory
// controller and every aligner (nil detaches). A quiescent injector (all
// probabilities zero) leaves the machine cycle-for-cycle identical to one
// without an injector.
func (m *Machine) AttachInjector(j *fault.Injector) {
	m.inj = j
	m.ctl.AttachInjector(j)
	for _, a := range m.aligners {
		a.inj = j
	}
}

// Config returns the hardware configuration.
func (m *Machine) Config() Config { return m.cfg }

// Memory returns the attached main memory.
func (m *Machine) Memory() *mem.Memory { return m.memory }

// Aligners exposes the aligner modules (for statistics).
func (m *Machine) Aligners() []*AlignerHW { return m.aligners }

// Cycle returns the current cycle count.
func (m *Machine) Cycle() int64 { return m.cycle }

// startJob latches the register configuration and arms the datapath. A bad
// configuration sets the Error status bit and leaves the machine idle, so
// broken register writes can never hang the SoC.
func (m *Machine) startJob() {
	r := m.Regs
	r.errored = false
	r.ErrCode = ErrCodeNone
	r.ErrAddr = 0
	r.OutCount = 0
	r.OutCRC = 0
	r.SDCInput = 0
	r.SDCWavefront = 0
	maxReadLen := int(r.MaxReadLen)
	numPairs := int(r.NumPairs)
	ok := maxReadLen >= 16 && maxReadLen%16 == 0 && maxReadLen <= m.cfg.MaxReadLenCap &&
		numPairs > 0 && numPairs <= 1<<24
	inputBytes := int64(numPairs) * int64(seqio.PairSections(maxReadLen)) * mem.BeatBytes
	if ok {
		if r.InputAddr%mem.BeatBytes != 0 || r.OutputAddr%mem.BeatBytes != 0 {
			ok = false
		}
		// Both base addresses must decode inside main memory; checking them
		// first also keeps the region sum below free of int64 overflow.
		if r.InputAddr >= uint64(m.memory.Size()) || r.OutputAddr >= uint64(m.memory.Size()) {
			ok = false
		} else if int64(r.InputAddr)+inputBytes > int64(m.memory.Size()) {
			ok = false
		}
	}
	if !ok {
		// Every trace call site is guarded so the ...any argument boxing is
		// skipped entirely when no tracer is attached (TestMachineRunAllocs
		// counts a nil-tracer run's allocations exactly).
		if m.tracer != nil {
			m.trace("machine", "job-error", "rejected: maxReadLen=%d pairs=%d in=%#x out=%#x", //vet:allow hotalloc traced only when a tracer is attached
				maxReadLen, numPairs, r.InputAddr, r.OutputAddr)
		}
		m.perfRejects++
		r.errored = true
		r.ErrCode = ErrCodeConfig
		r.idle = true
		if r.irqEnable {
			r.irq = true
		}
		return
	}
	if m.tracer != nil {
		m.trace("machine", "job-start", "pairs=%d maxReadLen=%d bt=%v in=%#x out=%#x", //vet:allow hotalloc traced only when a tracer is attached
			numPairs, maxReadLen, r.BTEnable, r.InputAddr, r.OutputAddr)
	}

	m.running = true
	m.perfJobs++
	// Snapshot the monotone SDC stats so the Reg* windows report per-job
	// deltas (the same base-delta pattern as the perf counters).
	m.sdcInputBase = m.extractor.Stats.SDCInput
	m.sdcWavefrontBase = 0
	for _, a := range m.aligners {
		m.sdcWavefrontBase += a.Stats.SDCWavefront
	}
	r.idle = false
	r.JobCycles = 0
	m.jobStart = m.cycle
	m.readAddr = int64(r.InputAddr)
	m.readBeatsLeft = int(inputBytes / mem.BeatBytes)
	m.outstanding = 0
	m.writeAddr = int64(r.OutputAddr)
	m.writeBuf = m.writeBuf[:0]
	m.inFIFO.Clear()
	m.outFIFO.Clear()
	m.Timings = m.Timings[:0]

	m.extractor.Configure(maxReadLen, numPairs, r.BTEnable)
	// Both callbacks are bound once in NewMachine (m.onResult); binding a
	// closure or method value here would allocate on every job start.
	m.collector.Configure(numPairs, r.BTEnable, m.onResult)
}

// onPairDispatch observes each pair handoff for tracing; it is installed on
// the extractor once, at construction.
func (m *Machine) onPairDispatch(id uint32, reading int64, unsupported bool, aligner int) {
	if m.tracer != nil {
		m.trace("extractor", "pair-start", "id=%d reading=%d unsupported=%v -> aligner%d", //vet:allow hotalloc traced only when a tracer is attached
			id, reading, unsupported, aligner)
	}
}

func (m *Machine) recordResult(id uint32, rec ScoreRecord, a *AlignerHW) {
	if m.tracer != nil {
		m.trace("collector", "pair-done", "id=%d success=%v score=%d align=%d cycles", //vet:allow hotalloc traced only when a tracer is attached
			id, rec.Success, rec.Score, a.finishCycle-a.startCycle)
	}
	m.Timings = append(m.Timings, PairTiming{
		ID:            id,
		Success:       rec.Success,
		Score:         int(rec.Score),
		ReadingCycles: m.extractor.ReadingCycles(id),
		AlignCycles:   a.finishCycle - a.startCycle,
		Aligner:       a.idx,
		StartCycle:    a.startCycle,
		FinishCycle:   a.finishCycle,
	})
}

// Tick advances the whole accelerator (and the memory controller) one cycle.
func (m *Machine) Tick() {
	if m.Regs.resetRequested {
		m.Regs.resetRequested = false
		m.softReset()
	}
	if m.Regs.startRequested {
		m.Regs.startRequested = false
		m.startJob()
	}
	cycle := m.cycle + 1
	m.cycle++
	if !m.running {
		return
	}

	m.ctl.Tick()
	m.dmaRead(cycle)
	m.extractor.Tick(cycle)
	var wfTrips int64
	for _, a := range m.aligners {
		a.Tick(cycle)
		wfTrips += a.Stats.SDCWavefront
	}
	m.collector.Tick()
	m.dmaWrite(cycle)
	m.inFIFO.Tick()
	m.outFIFO.Tick()
	m.Regs.OutCount = uint32(m.collector.Transactions)
	m.Regs.OutCRC = m.collector.outCRC
	m.Regs.SDCInput = uint32(m.extractor.Stats.SDCInput - m.sdcInputBase)
	m.Regs.SDCWavefront = uint32(wfTrips - m.sdcWavefrontBase)
	m.Regs.JobCycles = uint64(cycle - m.jobStart)
	if m.sampleEvery > 0 && cycle%m.sampleEvery == 0 {
		m.samplePerf(cycle)
	}

	if m.pendingAbort {
		m.pendingAbort = false
		m.abortJob(cycle)
		return
	}
	if m.jobDone() {
		if m.tracer != nil {
			m.trace("machine", "job-done", "cycles=%d transactions=%d", //vet:allow hotalloc traced only when a tracer is attached
				cycle-m.jobStart, m.collector.Transactions)
		}
		m.running = false
		m.Regs.idle = true
		if m.Regs.irqEnable && !m.inj.DropIRQ(cycle) {
			m.Regs.irq = true
		}
		return
	}
	if m.inj.SpuriousIRQ(cycle) {
		m.Regs.irq = true
	}
}

// requestAbort stages a job abort for the end of the current Tick; the
// first fault of a cycle wins.
func (m *Machine) requestAbort(code uint32, addr uint64) {
	if m.pendingAbort {
		return
	}
	m.pendingAbort = true
	m.abortCode = code
	m.abortAddr = addr
}

// abortJob terminates the running job on a bus fault: the datapath is
// scrubbed, the error registers latch the diagnosis, and the machine goes
// idle with the Error status bit set (raising the IRQ if enabled, exactly as
// a rejected configuration does).
func (m *Machine) abortJob(cycle int64) {
	if m.tracer != nil {
		m.trace("machine", "job-abort", "code=%d addr=%#x cycles=%d", //vet:allow hotalloc traced only when a tracer is attached
			m.abortCode, m.abortAddr, cycle-m.jobStart)
	}
	m.perfAborts++
	m.scrub()
	m.running = false
	r := m.Regs
	r.ErrCode = m.abortCode
	r.ErrAddr = m.abortAddr
	r.errored = true
	r.idle = true
	r.JobCycles = uint64(cycle - m.jobStart)
	if r.irqEnable {
		r.irq = true
	}
}

// scrub abandons all in-flight datapath state: DMA engines, FIFOs,
// extractor, aligners and collector return to their pre-configure idle.
func (m *Machine) scrub() {
	m.ctl.CancelPort(m.rdPort)
	m.ctl.CancelPort(m.wrPort)
	m.inFIFO.Clear()
	m.outFIFO.Clear()
	m.extractor.Reset()
	m.collector.Reset()
	for _, a := range m.aligners {
		a.Reset()
	}
	m.readBeatsLeft = 0
	m.outstanding = 0
	m.writeBuf = m.writeBuf[:0]
	m.pendingAbort = false
}

// softReset implements CtrlReset: abort whatever is running, scrub the
// datapath, clear status/error/result state and return to a cleanly
// reconfigurable idle. Configuration registers survive, so the driver can
// re-Start without reprogramming addresses.
func (m *Machine) softReset() {
	if m.tracer != nil {
		m.trace("machine", "soft-reset", "running=%v", m.running) //vet:allow hotalloc traced only when a tracer is attached
	}
	m.perfSoftResets++
	m.scrub()
	m.ctl.ResetArbitration()
	m.running = false
	r := m.Regs
	r.idle = true
	r.errored = false
	r.irq = false
	r.startRequested = false
	r.ErrCode = ErrCodeNone
	r.ErrAddr = 0
	r.OutCount = 0
	r.OutCRC = 0
	r.SDCInput = 0
	r.SDCWavefront = 0
	r.JobCycles = 0
	m.Timings = m.Timings[:0]
}

// dmaRead keeps the input FIFO fed: deliver arrived beats, then issue new
// burst requests while both input data and FIFO room remain. An AXI error
// response latched on the read port aborts the job.
func (m *Machine) dmaRead(cycle int64) {
	if f, ok := m.rdPort.TakeFault(); ok {
		if m.tracer != nil {
			m.trace("machine", "axi-error", "rd addr=%#x cycle=%d", f.Addr, cycle) //vet:allow hotalloc traced only when a tracer is attached
		}
		m.requestAbort(ErrCodeAXIRead, uint64(f.Addr))
		return
	}
	for {
		beat, ok := m.rdPort.NextBeat()
		if !ok {
			break
		}
		if !m.inFIFO.Push(beat.Data) {
			invariant.Failf("core", "DMA read overran the input FIFO")
		}
		m.outstanding--
	}
	room := m.inFIFO.Depth() - m.inFIFO.Occupancy() - m.outstanding
	burst := m.cfg.Timing.Mem.BurstBeats
	if m.readBeatsLeft > 0 && room < burst {
		m.rdThrottleCycles++
	}
	for m.readBeatsLeft > 0 && room >= burst {
		n := burst
		if n > m.readBeatsLeft {
			n = m.readBeatsLeft
		}
		m.rdPort.RequestRead(m.readAddr, n)
		m.readAddr += int64(n) * mem.BeatBytes
		m.readBeatsLeft -= n
		m.outstanding += n
		room -= n
	}
}

// dmaWrite drains the output FIFO into main memory, one beat per cycle into
// the staging buffer, issuing a burst when a full window accumulates (or at
// the end of the job). An AXI error response latched on the write port
// aborts the job; the fault layer may also drop or corrupt outgoing beats
// here, between the FIFO and the bus.
func (m *Machine) dmaWrite(cycle int64) {
	if f, ok := m.wrPort.TakeFault(); ok {
		if m.tracer != nil {
			m.trace("machine", "axi-error", "wr addr=%#x cycle=%d", f.Addr, cycle) //vet:allow hotalloc traced only when a tracer is attached
		}
		m.requestAbort(ErrCodeAXIWrite, uint64(f.Addr))
		return
	}
	if len(m.writeBuf) > 0 {
		m.wrBacklogCycles++
	}
	if beat, ok := m.outFIFO.Pop(); ok {
		if m.inj.DropOutputBeat(cycle) {
			if m.tracer != nil {
				m.trace("machine", "out-drop", "cycle=%d", cycle) //vet:allow hotalloc traced only when a tracer is attached
			}
		} else {
			m.inj.CorruptOutputBeat(cycle, beat[:])
			m.writeBuf = append(m.writeBuf, beat)
		}
	}
	burst := m.cfg.Timing.Mem.BurstBeats
	flush := m.extractor.Done() && m.allAlignersIdle() && m.collector.Done() && m.outFIFO.Empty()
	if len(m.writeBuf) >= burst || (flush && len(m.writeBuf) > 0) {
		n := len(m.writeBuf)
		if n > burst {
			n = burst
		}
		for _, b := range m.writeBuf[:n] {
			m.wrPort.PushWriteBeat(mem.Beat{Data: b})
		}
		m.wrPort.RequestWrite(m.writeAddr, n)
		m.writeAddr += int64(n) * mem.BeatBytes
		m.writeBuf = m.writeBuf[n:]
	}
}

func (m *Machine) allAlignersIdle() bool {
	for _, a := range m.aligners {
		if !a.Idle() {
			return false
		}
	}
	return true
}

func (m *Machine) jobDone() bool {
	return m.extractor.Done() &&
		m.allAlignersIdle() &&
		m.collector.Done() &&
		m.outFIFO.Empty() &&
		len(m.writeBuf) == 0 &&
		m.rdPort.Idle() && m.wrPort.Idle() &&
		m.ctl.Idle()
}

// SkipStats always returns (0, 0): every simulated cycle is an executed
// tick. It is kept only for the host-plane benchmark (hostbench), which
// derives its executed-tick count from it; the next change to that benchmark
// removes the call and this method together.
func (m *Machine) SkipStats() (jumps, cycles int64) { return 0, 0 }

// Run ticks the machine until the job completes, returning the cycles spent.
// It returns an error if the machine does not finish within maxCycles (the
// paper's "no CPU freeze" robustness criterion: a hang is a bug, not a
// wait), and a *HangError when the watchdog sees no datapath activity for
// Config.WatchdogCycles consecutive cycles (zero selects
// DefaultWatchdogCycles; negative disables the watchdog).
func (m *Machine) Run(maxCycles int64) (int64, error) {
	return m.RunCtx(context.Background(), maxCycles)
}

// runCtxCheckEvery is the cadence, in cycles, at which RunCtx polls its
// context. Coarse enough that the poll is invisible in the cycle loop's
// profile, fine enough that a cancelled caller waits microseconds, not
// milliseconds, for the loop to notice.
const runCtxCheckEvery = 1024

// RunCtx is Run with cooperative cancellation: every runCtxCheckEvery cycles
// it polls ctx and, once the context is done, stops ticking and returns
// ctx.Err() alongside the cycles spent so far. The machine is left exactly
// where the last tick put it (mid-job), so the caller must soft-reset before
// reusing it. Cancellation never perturbs the cycles already simulated: a
// run that completes before the deadline is bit-identical to Run.
//
//vet:hotpath
func (m *Machine) RunCtx(ctx context.Context, maxCycles int64) (int64, error) {
	start := m.cycle
	wd := int64(m.cfg.WatchdogCycles)
	if wd == 0 {
		wd = DefaultWatchdogCycles
	}
	last := m.progress()
	lastChange := m.cycle
	nextCheck := m.cycle + runCtxCheckEvery
	for m.Regs.startRequested || !m.Regs.Idle() {
		if m.cycle >= nextCheck {
			nextCheck = m.cycle + runCtxCheckEvery
			if err := ctx.Err(); err != nil {
				return m.cycle - start, err
			}
		}
		m.Tick()
		if wd > 0 {
			if sig := m.progress(); sig != last {
				last = sig
				lastChange = m.cycle
			} else if m.cycle-lastChange >= wd {
				return m.cycle - start, m.hangError(m.cycle - lastChange)
			}
		}
		if m.cycle-start > maxCycles {
			return m.cycle - start, budgetExceeded(maxCycles)
		}
	}
	return m.cycle - start, nil
}

// budgetExceeded builds RunCtx's error for a job that outran its cycle
// budget. It runs on the failure path only.
//
//vet:coldpath
func budgetExceeded(maxCycles int64) error {
	return fmt.Errorf("core: machine did not finish within %d cycles", maxCycles)
}
