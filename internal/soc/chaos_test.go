package soc

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/integrity"
)

// The chaos campaigns submit one input set through RunResilient under a
// seeded fault schedule and require the final per-pair outcomes to bit-match
// the software baseline — the paper's robustness claim ("we did not observe
// any CPU freeze") upgraded to "and the answers are still right".
//
// Every campaign is fully deterministic: the fault schedule is a pure
// function of (fault seed, machine behavior), so these tests either always
// pass or always fail.

// checkChaosOutcomes compares a resilient run against the per-pair software
// baseline (alignSoftware reproduces the accelerator's unsupported-read and
// k_max semantics exactly).
func checkChaosOutcomes(t *testing.T, s *SoC, rep *ResilientReport, opts ResilientOptions, pairs int) {
	t.Helper()
	if len(rep.Outcomes) != pairs {
		t.Fatalf("%d outcomes for %d pairs", len(rep.Outcomes), pairs)
	}
	if rep.HardwarePairs+rep.FallbackPairs != pairs {
		t.Fatalf("hardware %d + fallback %d != %d pairs", rep.HardwarePairs, rep.FallbackPairs, pairs)
	}
	if rep.TotalCycles != rep.AccelCycles+rep.CPUBacktraceCycles+rep.CPUFallbackCycles+rep.IntegrityCycles {
		t.Fatalf("TotalCycles %d is not the sum of its parts", rep.TotalCycles)
	}
}

func TestChaosCampaigns(t *testing.T) {
	pairs, length := 10, 260
	if testing.Short() {
		pairs, length = 5, 140
	}
	campaigns := []struct {
		name     string
		fc       fault.Config
		opts     ResilientOptions
		watchdog int
		check    func(t *testing.T, rep *ResilientReport)
	}{
		{
			// AXI error responses on both DMA engines: attempts abort with
			// ErrBusFault and are retried after a soft reset.
			name: "dma-bus-errors-nbt",
			fc:   fault.Config{Seed: 101, ReadErrorProb: 0.20, WriteErrorProb: 0.10},
			check: func(t *testing.T, rep *ResilientReport) {
				if rep.BusErrors == 0 {
					t.Error("no bus errors classified")
				}
			},
		},
		{
			// Silent corruption: flipped read data, flipped wavefront cells,
			// flipped and dropped output beats. Structural validation cannot
			// catch a plausible-but-wrong score, so this schedule requires the
			// software oracle.
			name: "silent-corruption-bt",
			fc: fault.Config{Seed: 202, DataFlipProb: 0.01, WavefrontFlipProb: 0.002,
				OutputFlipProb: 0.05, OutputDropProb: 0.02},
			opts: ResilientOptions{Backtrace: true, Verify: integrity.Policy{Mode: integrity.ModeFull}},
		},
		{
			// Every completion interrupt is dropped: WaitIRQ reports
			// ErrIRQMissing and the driver salvages the finished job.
			name: "irq-drop",
			fc:   fault.Config{Seed: 303, IRQDropProb: 1},
			opts: ResilientOptions{UseIRQ: true},
			check: func(t *testing.T, rep *ResilientReport) {
				if rep.IRQRecoveries == 0 {
					t.Error("dropped IRQs but no lost-IRQ recovery")
				}
				if rep.FallbackPairs != 0 {
					t.Errorf("%d pairs fell back; a lost IRQ should be fully recoverable", rep.FallbackPairs)
				}
			},
		},
		{
			// Transport-only faults: storms and latency spikes slow the run
			// but corrupt nothing, so the hardware delivers every pair on the
			// first attempt and no oracle is needed.
			name: "stall-storm-latency",
			fc: fault.Config{Seed: 404, StallStormProb: 0.002, StallStormMax: 40,
				LatencyProb: 0.05, LatencyMax: 12},
			check: func(t *testing.T, rep *ResilientReport) {
				if rep.Retries != 0 || rep.FallbackPairs != 0 {
					t.Errorf("transport-only faults caused retries=%d fallback=%d",
						rep.Retries, rep.FallbackPairs)
				}
				if rep.FaultCounts[fault.StallStorm] == 0 && rep.FaultCounts[fault.LatencySpike] == 0 {
					t.Error("schedule injected neither storms nor spikes")
				}
			},
		},
		{
			// Lost read grants leave the DMA engine waiting for beats that
			// never arrive; the watchdog diagnoses the hang and the driver
			// resets and resubmits.
			name:     "lost-grant-hang",
			fc:       fault.Config{Seed: 505, LostGrantProb: 0.90},
			watchdog: 2000,
			check: func(t *testing.T, rep *ResilientReport) {
				if rep.HangErrors == 0 {
					t.Error("lost grants but no watchdog hang diagnosed")
				}
			},
		},
		{
			// Everything at once, completion via IRQ, oracle on.
			name: "kitchen-sink",
			fc: fault.Config{Seed: 606, ReadErrorProb: 0.03, WriteErrorProb: 0.02,
				LostGrantProb: 0.02, LatencyProb: 0.02, LatencyMax: 8,
				StallStormProb: 0.001, StallStormMax: 30,
				DataFlipProb: 0.005, WavefrontFlipProb: 0.001,
				OutputFlipProb: 0.01, OutputDropProb: 0.005,
				IRQDropProb: 0.5, IRQSpuriousProb: 0.001},
			opts:     ResilientOptions{UseIRQ: true, Verify: integrity.Policy{Mode: integrity.ModeFull}},
			watchdog: 3000,
		},
	}

	var totalRetries, totalFallback int
	var totalFaults int64
	for _, c := range campaigns {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.WatchdogCycles = c.watchdog
			s, err := New(cfg, 1<<24)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.EnableFaults(c.fc); err != nil {
				t.Fatal(err)
			}
			set := testSet(pairs, length, 0.07)
			rep, err := s.RunResilient(set, c.opts)
			if err != nil {
				t.Fatalf("RunResilient: %v", err)
			}
			checkChaosOutcomes(t, s, rep, c.opts, len(set.Pairs))
			for i, p := range set.Pairs {
				want := s.alignSoftware(p, c.opts.Backtrace)
				got := rep.Outcomes[i]
				if got.ID != p.ID {
					t.Fatalf("outcome %d: ID %d want %d", i, got.ID, p.ID)
				}
				if got.Result.Success != want.res.Success {
					t.Fatalf("pair %d: success=%v software=%v", p.ID, got.Result.Success, want.res.Success)
				}
				if got.Result.Success && got.Result.Score != want.res.Score {
					t.Fatalf("pair %d: score=%d software=%d", p.ID, got.Result.Score, want.res.Score)
				}
				if c.opts.Backtrace && got.Result.Success &&
					got.Result.CIGAR.String() != want.res.CIGAR.String() {
					t.Fatalf("pair %d: CIGAR %s software %s", p.ID, got.Result.CIGAR, want.res.CIGAR)
				}
			}
			if rep.FaultEvents == 0 {
				t.Error("campaign injected no faults")
			}
			if c.check != nil {
				c.check(t, rep)
			}
			totalRetries += rep.Retries
			totalFallback += rep.FallbackPairs
			totalFaults += rep.FaultEvents
			t.Logf("attempts=%d retries=%d resets=%d hang=%d bus=%d irqRecov=%d decodeFail=%d valReject=%d hw=%d fallback=%d faults=%d",
				rep.Attempts, rep.Retries, rep.Resets, rep.HangErrors, rep.BusErrors,
				rep.IRQRecoveries, rep.DecodeFailures, rep.ValidationRejects,
				rep.HardwarePairs, rep.FallbackPairs, rep.FaultEvents)
		})
	}
	if totalRetries == 0 {
		t.Error("no campaign exercised the retry path")
	}
	if totalFallback == 0 {
		t.Error("no campaign degraded to the software fallback")
	}
	if totalFaults == 0 {
		t.Error("campaigns injected no faults at all")
	}
}

// TestChaosDeterminism runs the same chaotic campaign twice on fresh SoCs and
// requires byte-identical fault schedules and deeply equal reports (cycle
// counts included).
func TestChaosDeterminism(t *testing.T) {
	fc := fault.Config{Seed: 9090, ReadErrorProb: 0.05, WriteErrorProb: 0.02,
		LostGrantProb: 0.005, LatencyProb: 0.02, LatencyMax: 9,
		StallStormProb: 0.001, StallStormMax: 25,
		DataFlipProb: 0.005, WavefrontFlipProb: 0.002,
		OutputFlipProb: 0.01, OutputDropProb: 0.01,
		IRQDropProb: 0.5, IRQSpuriousProb: 0.001}
	opts := ResilientOptions{UseIRQ: true, Verify: integrity.Policy{Mode: integrity.ModeFull}}
	run := func() (*ResilientReport, string) {
		cfg := testConfig()
		cfg.WatchdogCycles = 3000
		s, err := New(cfg, 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EnableFaults(fc); err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunResilient(testSet(6, 180, 0.07), opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep, s.Faults.Schedule()
	}
	rep1, sched1 := run()
	rep2, sched2 := run()
	if sched1 != sched2 {
		t.Fatalf("same seed, different fault schedules:\n--- run 1 ---\n%s--- run 2 ---\n%s", sched1, sched2)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("same seed, different reports:\nrun 1: %+v\nrun 2: %+v", rep1, rep2)
	}
}

// TestChaosFaultFreeIdentity attaches a quiescent (all-zero-probability)
// injector and requires the run to be cycle-for-cycle and bit-for-bit
// identical to a run without the fault layer: enabling the layer must cost
// nothing until it actually fires.
func TestChaosFaultFreeIdentity(t *testing.T) {
	set := testSet(5, 200, 0.06)
	run := func(armed bool) *Report {
		s, err := New(testConfig(), 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		if armed {
			if err := s.EnableFaults(fault.Config{Seed: 1}); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := s.RunAccelerated(set, RunOptions{Backtrace: true})
		if err != nil {
			t.Fatal(err)
		}
		if armed && s.Faults.Total() != 0 {
			t.Fatalf("quiescent injector fired %d faults", s.Faults.Total())
		}
		return rep
	}
	plain := run(false)
	withLayer := run(true)
	if !reflect.DeepEqual(plain, withLayer) {
		t.Fatalf("fault layer perturbed a fault-free run:\nplain: %+v\narmed: %+v", plain, withLayer)
	}
}
