package soc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/seqgen"
)

// newChaosSoC builds a SoC with the given watchdog window and fault config.
func newChaosSoC(t *testing.T, watchdog int, fc fault.Config) *SoC {
	t.Helper()
	cfg := core.ChipConfig()
	cfg.WatchdogCycles = watchdog
	s, err := New(cfg, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableFaults(fc); err != nil {
		t.Fatal(err)
	}
	return s
}

func smallSet(pairs, length int) *seqgen.Generator {
	return seqgen.New(uint64(pairs), uint64(length))
}

func TestResilientOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts ResilientOptions
		want string // "" means valid
	}{
		{"zero-defaults", ResilientOptions{}, ""},
		{"explicit-valid", ResilientOptions{MaxAttempts: 5, UseIRQ: true}, ""},
		{"negative-attempts", ResilientOptions{MaxAttempts: -1}, "MaxAttempts"},
		{"verify-full", ResilientOptions{Verify: integrity.Policy{Mode: integrity.ModeFull}}, ""},
		{"verify-policy-invalid", ResilientOptions{Verify: integrity.Policy{Mode: integrity.ModeSampled}}, "sampled rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid options rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid options accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// An invalid option combination must fail the run itself, not silently clamp.
func TestRunResilientRejectsInvalidOptions(t *testing.T) {
	s := newChaosSoC(t, 0, fault.Config{})
	set := smallSet(3, 100).Set(seqgen.Profile{Name: "p", Length: 100, ErrorRate: 0.05, NumPairs: 3})
	if _, err := s.RunResilient(set, ResilientOptions{MaxAttempts: -1}); err == nil {
		t.Fatal("negative MaxAttempts did not error")
	}
}

func TestRunResilientCtxPreCancelled(t *testing.T) {
	s := newChaosSoC(t, 0, fault.Config{})
	set := smallSet(3, 100).Set(seqgen.Profile{Name: "p", Length: 100, ErrorRate: 0.05, NumPairs: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.RunResilientCtx(ctx, set, ResilientOptions{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("pre-cancelled context: got %v, want ErrDeadline", err)
	}
}

// A deadline landing mid-attempt aborts the retry ladder promptly, surfaces
// ErrDeadline, and leaves the device reusable after the driver's soft reset.
func TestRunResilientCtxMidRunDeadline(t *testing.T) {
	// Every read grant is lost and the watchdog is effectively disabled, so
	// the job can only ever end through the context.
	s := newChaosSoC(t, 1<<30, fault.Config{Seed: 7, LostGrantProb: 1})
	g := smallSet(4, 100)
	set := g.Set(seqgen.Profile{Name: "p", Length: 100, ErrorRate: 0.05, NumPairs: 4})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.RunResilientCtx(ctx, set, ResilientOptions{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("hung job under expired deadline: got %v, want ErrDeadline", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("deadline abort took %v; the ladder did not abort promptly", took)
	}

	// The post-abort reset must leave the device fully usable: disable the
	// injector's fault source and run the same set to completion.
	s.Faults = nil
	s.Machine.AttachInjector(nil)
	rep, err := s.RunResilient(set, ResilientOptions{})
	if err != nil {
		t.Fatalf("device unusable after deadline abort: %v", err)
	}
	if rep.HardwarePairs != len(set.Pairs) {
		t.Fatalf("post-abort run delivered %d/%d pairs in hardware", rep.HardwarePairs, len(set.Pairs))
	}
}

// checkLadderExhausted runs a small set on a SoC whose every attempt fails
// and checks that the reset-and-resubmit ladder runs exactly attempts
// submissions, each counted by failures, and that every pair degrades to the
// software WFA.
func checkLadderExhausted(t *testing.T, s *SoC, opts ResilientOptions, attempts int, failures func(*ResilientReport) int) {
	t.Helper()
	set := smallSet(3, 100).Set(seqgen.Profile{Name: "p", Length: 100, ErrorRate: 0.05, NumPairs: 3})
	rep, err := s.RunResilient(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != attempts || failures(rep) != attempts {
		t.Fatalf("want %d failed attempts, got attempts=%d failures=%d", attempts, rep.Attempts, failures(rep))
	}
	if rep.FallbackPairs != len(set.Pairs) {
		t.Fatalf("all pairs should have fallen back, got %d/%d", rep.FallbackPairs, len(set.Pairs))
	}
}

// Every read transaction errors: each of the DefaultMaxAttempts attempts dies
// on ErrBusFault.
func TestRetryLadderBusFaultExhaustsMaxAttempts(t *testing.T) {
	s := newChaosSoC(t, 0, fault.Config{Seed: 11, ReadErrorProb: 1})
	checkLadderExhausted(t, s, ResilientOptions{}, DefaultMaxAttempts,
		func(r *ResilientReport) int { return r.BusErrors })
}

// Every read grant is lost: the watchdog diagnoses each of the MaxAttempts
// attempts as hung.
func TestRetryLadderHangExhaustsMaxAttempts(t *testing.T) {
	s := newChaosSoC(t, 1500, fault.Config{Seed: 21, LostGrantProb: 1})
	checkLadderExhausted(t, s, ResilientOptions{MaxAttempts: 4}, 4,
		func(r *ResilientReport) int { return r.HangErrors })
}
