package core

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/seqgen"
)

// hungJob programs a job that loses read grants with probability lost, so
// the DMA read engine ends up waiting forever for beats that never arrive.
func hungJob(t *testing.T, cfg Config, lost float64, seed, setSeed uint64) *Machine {
	t.Helper()
	set := seqgen.New(setSeed, setSeed+1).Set(seqgen.Profile{Name: "hang", Length: 100, ErrorRate: 0.05, NumPairs: 2})
	m, _ := setupJob(t, cfg, set, false)
	inj, err := fault.New(fault.Config{Seed: seed, LostGrantProb: lost})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachInjector(inj)
	return m
}

// A hang trips the watchdog on an exact, pinned cycle: WatchdogCycles after
// the last observable progress, with the DMA and FIFO state of that cycle.
func TestWatchdogFiresOnExactCycle(t *testing.T) {
	cfg := testConfig()
	cfg.WatchdogCycles = 5_000
	m := hungJob(t, cfg, 0.5, 9, 31)
	cycles, err := m.Run(50_000_000)
	var hang *HangError
	if !errors.As(err, &hang) {
		t.Fatalf("hung job: got %v, want a *HangError", err)
	}
	// Grants stop arriving 42 cycles in, with 16 beats outstanding; the
	// watchdog fires exactly WatchdogCycles later.
	want := HangError{Cycle: 5_042, Stalled: 5_000, Outstanding: 16}
	if cycles != want.Cycle || m.Cycle() != want.Cycle || *hang != want {
		t.Fatalf("watchdog fired after %d cycles with %+v, want %+v", cycles, *hang, want)
	}
}

// With the watchdog disabled, a hang runs into the cycle budget, and Run
// returns its error on the first cycle past maxCycles.
func TestMaxCyclesBudgetExactCycle(t *testing.T) {
	cfg := testConfig()
	cfg.WatchdogCycles = -1
	m := hungJob(t, cfg, 1, 13, 41)
	const budget = 123_456
	cycles, err := m.Run(budget)
	if err == nil {
		t.Fatal("hung job finished within its cycle budget")
	}
	if want := "core: machine did not finish within 123456 cycles"; err.Error() != want {
		t.Fatalf("budget error %q, want %q", err, want)
	}
	if cycles != budget+1 || m.Cycle() != budget+1 {
		t.Fatalf("budget error after %d cycles (machine cycle %d), want %d", cycles, m.Cycle(), budget+1)
	}
}
