package soc

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/seqgen"
	"repro/internal/seqio"
)

func testConfig() core.Config {
	cfg := core.ChipConfig()
	cfg.MaxReadLenCap = 2048
	cfg.KMax = 512
	return cfg
}

func testSet(n int, length int, rate float64) *seqio.InputSet {
	g := seqgen.New(uint64(length), uint64(n))
	set := &seqio.InputSet{}
	for i := 0; i < n; i++ {
		set.Pairs = append(set.Pairs, g.Pair(uint32(i+1), length, rate))
	}
	return set
}

func TestAcceleratedMatchesCPU(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(6, 220, 0.07)
	accel, err := s.RunAccelerated(set, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := s.RunCPU(set, CPUScalar, false)
	if err != nil {
		t.Fatal(err)
	}
	accelByID := map[uint32]PairOutcome{}
	for _, o := range accel.Outcomes {
		accelByID[o.ID] = o
	}
	for _, o := range cpu.Outcomes {
		a, ok := accelByID[o.ID]
		if !ok {
			t.Fatalf("pair %d missing from accelerated run", o.ID)
		}
		if a.Result.Score != o.Result.Score || a.Result.Success != o.Result.Success {
			t.Fatalf("pair %d: accel=%+v cpu=%+v", o.ID, a.Result, o.Result)
		}
	}
	if accel.AccelCycles <= 0 || cpu.Cycles <= 0 {
		t.Fatalf("cycles: accel=%d cpu=%d", accel.AccelCycles, cpu.Cycles)
	}
	// The whole point of the paper: the accelerator is much faster.
	if accel.AccelCycles >= cpu.Cycles {
		t.Fatalf("no speedup: accel=%d cpu=%d", accel.AccelCycles, cpu.Cycles)
	}
}

// TestZeroFromInPlace pins the wipe RunResilient does before every attempt:
// afterwards every byte from the output address to the end of memory is
// zero, the bytes below it are untouched, and the wipe allocates nothing.
func TestZeroFromInPlace(t *testing.T) {
	s, err := New(testConfig(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const addr = 0x1230
	data := s.Memory.Bytes()
	dirty := func() {
		for i := range data {
			data[i] = 0xA5
		}
	}
	if allocs := testing.AllocsPerRun(3, func() {
		dirty()
		s.zeroFrom(addr)
	}); allocs != 0 {
		t.Errorf("zeroFrom allocated %.0f times per call, want 0", allocs)
	}
	dirty()
	s.zeroFrom(addr)
	for i, b := range data {
		want := byte(0)
		if i < addr {
			want = 0xA5
		}
		if b != want {
			t.Fatalf("byte %#x = %#x after zeroFrom(%#x), want %#x", i, b, addr, want)
		}
	}
}

func TestAcceleratedBacktraceCIGARs(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(4, 300, 0.08)
	rep, err := s.RunAccelerated(set, RunOptions{Backtrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPUBacktraceCycles <= 0 {
		t.Fatal("no CPU backtrace cycles accounted")
	}
	if rep.TotalCycles != rep.AccelCycles+rep.CPUBacktraceCycles {
		t.Fatal("TotalCycles mismatch")
	}
	pairByID := map[uint32]seqio.Pair{}
	for _, p := range set.Pairs {
		pairByID[p.ID] = p
	}
	for _, o := range rep.Outcomes {
		p := pairByID[o.ID]
		if !o.Result.Success {
			t.Fatalf("pair %d failed", o.ID)
		}
		if err := o.Result.CIGAR.Validate(p.A, p.B); err != nil {
			t.Fatalf("pair %d: %v", o.ID, err)
		}
		if o.Result.CIGAR.Score(cfg.Penalties) != o.Result.Score {
			t.Fatalf("pair %d: CIGAR rescore mismatch", o.ID)
		}
	}
}

func TestSeparationCostsMore(t *testing.T) {
	cfg := testConfig()
	set := testSet(5, 400, 0.10)
	s1, _ := New(cfg, 1<<24)
	noSep, err := s1.RunAccelerated(set, RunOptions{Backtrace: true})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := New(cfg, 1<<24)
	sep, err := s2.RunAccelerated(set, RunOptions{Backtrace: true, SeparateData: true})
	if err != nil {
		t.Fatal(err)
	}
	if sep.CPUBacktraceCycles <= noSep.CPUBacktraceCycles {
		t.Fatalf("separation (%d cycles) not costlier than boundary scan (%d cycles)",
			sep.CPUBacktraceCycles, noSep.CPUBacktraceCycles)
	}
}

func TestVectorFasterThanScalar(t *testing.T) {
	cfg := testConfig()
	s, _ := New(cfg, 1<<22)
	set := testSet(4, 500, 0.08)
	scalar, _ := s.RunCPU(set, CPUScalar, false)
	vector, _ := s.RunCPU(set, CPUVector, false)
	if vector.Cycles >= scalar.Cycles {
		t.Fatalf("vector (%d) not faster than scalar (%d)", vector.Cycles, scalar.Cycles)
	}
	speedup := float64(scalar.Cycles) / float64(vector.Cycles)
	if speedup > 6 {
		t.Fatalf("vector speedup %.1fx implausibly high for an in-order SIMD unit", speedup)
	}
}

func TestSWGSlowerThanWFA(t *testing.T) {
	cfg := testConfig()
	s, _ := New(cfg, 1<<22)
	set := testSet(2, 600, 0.05)
	wfaRep, _ := s.RunCPU(set, CPUScalar, false)
	swgRep, _ := s.RunCPU(set, CPUSWG, false)
	if swgRep.Cycles <= wfaRep.Cycles {
		t.Fatalf("SWG (%d) not slower than WFA (%d) at 5%% error", swgRep.Cycles, wfaRep.Cycles)
	}
	for i := range wfaRep.Outcomes {
		if wfaRep.Outcomes[i].Result.Score != swgRep.Outcomes[i].Result.Score {
			t.Fatalf("pair %d: WFA %d != SWG %d", i,
				wfaRep.Outcomes[i].Result.Score, swgRep.Outcomes[i].Result.Score)
		}
	}
}

func TestEstimateBTOutputBytesExact(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(3, 250, 0.09)
	want, err := s.EstimateBTOutputBytes(set)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunAccelerated(set, RunOptions{Backtrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.OutTransactions * mem.BeatBytes; got != want {
		t.Fatalf("estimated %dB, hardware wrote %dB", want, got)
	}
}

func TestDriverIRQPath(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(1, 100, 0.05)
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	s.Memory.Write(inputBase, img)
	job := JobConfig{
		InputAddr:  inputBase,
		OutputAddr: 1 << 20,
		NumPairs:   1,
		MaxReadLen: set.EffectiveMaxReadLen(),
		EnableIRQ:  true,
	}
	if err := s.Driver.Configure(job); err != nil {
		t.Fatal(err)
	}
	if err := s.Driver.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Driver.WaitIRQ(10_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestJobCyclesRegisterMatchesRun(t *testing.T) {
	cfg := testConfig()
	s, err := New(cfg, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(2, 150, 0.06)
	rep, err := s.RunAccelerated(set, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hw, err := s.Driver.JobCycles()
	if err != nil {
		t.Fatal(err)
	}
	if hw != rep.AccelCycles {
		t.Fatalf("hardware cycle counter %d != measured %d", hw, rep.AccelCycles)
	}
}

func TestRunRejectsOversizedReads(t *testing.T) {
	cfg := testConfig()
	s, _ := New(cfg, 1<<22)
	g := seqgen.New(1, 1)
	set := &seqio.InputSet{Pairs: []seqio.Pair{
		{ID: 1, A: g.RandomSequence(4000), B: g.RandomSequence(4000)},
	}}
	if _, err := s.RunAccelerated(set, RunOptions{}); err == nil {
		t.Fatal("4000-base reads accepted by a 2048-cap SoC")
	}
}

func TestTooSmallMemoryIsAnErrorNotAPanic(t *testing.T) {
	cfg := testConfig()
	s, _ := New(cfg, 1<<16) // 64KB: too small for BT output of this set
	set := testSet(4, 500, 0.10)
	_, err := s.RunAccelerated(set, RunOptions{Backtrace: true})
	if err == nil {
		t.Fatal("overflowing run returned no error")
	}
}

// The driver's completion paths classify failures through exported sentinel
// errors so callers can pick a recovery with errors.Is.
func TestSentinelJobRejected(t *testing.T) {
	cfg := testConfig()
	s, _ := New(cfg, 1<<20)
	job := JobConfig{
		InputAddr:  inputBase,
		OutputAddr: 1 << 19,
		NumPairs:   1,
		MaxReadLen: 100, // not a multiple of 16: the machine must reject it
	}
	if err := s.Driver.Configure(job); err != nil {
		t.Fatal(err)
	}
	if err := s.Driver.Start(); err != nil {
		t.Fatal(err)
	}
	_, err := s.Driver.PollIdle(10_000)
	if !errors.Is(err, ErrJobRejected) {
		t.Fatalf("bad MAX_READ_LEN: got %v, want ErrJobRejected", err)
	}
	code, _, infoErr := s.Driver.ErrInfo()
	if infoErr != nil || code != core.ErrCodeConfig {
		t.Fatalf("error code %d (err %v), want ErrCodeConfig", code, infoErr)
	}
	if err := s.Driver.ClearError(); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := s.Driver.ErrInfo(); code != core.ErrCodeNone {
		t.Fatalf("error code %d after W1C clear", code)
	}
}

func TestSentinelIRQMissing(t *testing.T) {
	cfg := testConfig()
	s, _ := New(cfg, 1<<22)
	set := testSet(1, 100, 0.05)
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	s.Memory.Write(inputBase, img)
	job := JobConfig{
		InputAddr:  inputBase,
		OutputAddr: 1 << 20,
		NumPairs:   1,
		MaxReadLen: set.EffectiveMaxReadLen(),
		// EnableIRQ deliberately left false: the job completes, but WaitIRQ
		// finds no pending interrupt.
	}
	if err := s.Driver.Configure(job); err != nil {
		t.Fatal(err)
	}
	if err := s.Driver.Start(); err != nil {
		t.Fatal(err)
	}
	_, err = s.Driver.WaitIRQ(10_000_000)
	if !errors.Is(err, ErrIRQMissing) {
		t.Fatalf("IRQ-less completion: got %v, want ErrIRQMissing", err)
	}
}

func TestSentinelHang(t *testing.T) {
	cfg := testConfig()
	s, _ := New(cfg, 1<<22)
	set := testSet(1, 200, 0.05)
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	s.Memory.Write(inputBase, img)
	job := JobConfig{
		InputAddr:  inputBase,
		OutputAddr: 1 << 20,
		NumPairs:   1,
		MaxReadLen: set.EffectiveMaxReadLen(),
	}
	if err := s.Driver.Configure(job); err != nil {
		t.Fatal(err)
	}
	if err := s.Driver.Start(); err != nil {
		t.Fatal(err)
	}
	// A 10-cycle budget cannot finish any job: the exhausted budget must
	// surface as ErrHang.
	if _, err := s.Driver.PollIdle(10); !errors.Is(err, ErrHang) {
		t.Fatalf("exhausted budget: got %v, want ErrHang", err)
	}
}
