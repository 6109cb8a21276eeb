package soc

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/integrity"
)

// TestReportPerfWindow proves the driver-visible perf window end to end: the
// register-level counter count matches the machine's, RunAccelerated attaches
// a per-job delta, and the delta's headline counters agree with the report.
func TestReportPerfWindow(t *testing.T) {
	s, err := New(testConfig(), 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Driver.PerfCounterCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != s.Machine.PerfCount() || n == 0 {
		t.Fatalf("driver sees %d counters, machine has %d", n, s.Machine.PerfCount())
	}
	set := testSet(6, 200, 0.07)
	rep, err := s.RunAccelerated(set, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Perf.Entries) != n {
		t.Fatalf("report perf window has %d entries, want %d", len(rep.Perf.Entries), n)
	}
	get := func(name string) int64 {
		v, ok := rep.Perf.Get(name)
		if !ok {
			t.Fatalf("counter %q missing from report", name)
		}
		return v
	}
	if got := get("extractor.pairs"); got != int64(len(set.Pairs)) {
		t.Fatalf("extractor.pairs delta = %d, want %d", got, len(set.Pairs))
	}
	if got := get("machine.jobs"); got != 1 {
		t.Fatalf("machine.jobs delta = %d, want 1", got)
	}
	if got := get("collector.transactions"); got != int64(rep.OutTransactions) {
		t.Fatalf("collector.transactions delta = %d, report says %d", got, rep.OutTransactions)
	}
	if get("machine.cycles") == 0 || get("dma.rd_beats") == 0 {
		t.Fatal("cycle/DMA counters did not move across the job")
	}

	// A second job windows independently: the delta restarts near zero even
	// though the underlying counters are monotone.
	rep2, err := s.RunAccelerated(set, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := rep2.Perf.Get("machine.jobs")
	if v2 != 1 {
		t.Fatalf("second job's machine.jobs delta = %d, want 1", v2)
	}
}

// TestChaosPerfDeterminism is the counter half of the determinism claim under
// fire: one seeded chaos campaign run twice on fresh SoCs yields
// byte-identical perf counter JSON in the resilient report.
func TestChaosPerfDeterminism(t *testing.T) {
	fc := fault.Config{Seed: 7171, ReadErrorProb: 0.08, WriteErrorProb: 0.03,
		LatencyProb: 0.02, LatencyMax: 7, DataFlipProb: 0.004,
		OutputDropProb: 0.01, IRQDropProb: 0.3}
	run := func() []byte {
		cfg := testConfig()
		cfg.WatchdogCycles = 3000
		s, err := New(cfg, 1<<24)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EnableFaults(fc); err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunResilient(testSet(5, 160, 0.07), ResilientOptions{UseIRQ: true, Verify: integrity.Policy{Mode: integrity.ModeFull}})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Perf.Entries) == 0 {
			t.Fatal("resilient report carries no perf window")
		}
		js, err := rep.Perf.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	js1 := run()
	js2 := run()
	if !bytes.Equal(js1, js2) {
		t.Fatalf("same-seed chaos runs disagree on counters:\n%s\n%s", js1, js2)
	}
}
