package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/seqgen"
	"repro/internal/seqio"
	"repro/internal/soc"
)

// deviceSpec is one closed-loop offline workload: fixed-shape batches run
// through soc.RunResilient on a soc.NewFleet, one caller per member.
type deviceSpec struct {
	readLen   int       // nominal read length
	smallLen  int       // read length at smoke-test scale
	errRates  []float64 // one pair per entry in every batch
	poolJobs  int       // distinct batches; the phases cycle through them
	backtrace bool
	verify    integrity.Policy
	rounds    int // serve-probe requests per path in a traced run
}

// deviceLong pairs a 10K-5% read with a 10K-10% read in every batch: the
// simulator core does almost all of the work.
var deviceLong = deviceSpec{
	readLen:  10000,
	smallLen: 1000,
	errRates: []float64{0.05, 0.10},
	poolJobs: 4,
	rounds:   3,
}

// verifyBT runs eight 1K-10% reads per batch with backtrace on and every
// pair shadow-aligned by the software WFA (integrity.ModeFull).
var verifyBT = deviceSpec{
	readLen:   1000,
	smallLen:  200,
	errRates:  []float64{0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10},
	poolJobs:  8,
	backtrace: true,
	verify:    integrity.Policy{Mode: integrity.ModeFull},
	rounds:    10,
}

// minRounds is the fewest times the untraced run alternates a pass over the
// workload's batches (low) with a pass over double batches (high); it runs
// as many as fit in its time, so that host contention, which comes in
// bursts of seconds, leaves fast rounds of both shapes (see fastQuantile).
const minRounds = 3

// batchJob is one RunResilient call: its input set (device-local IDs 1..n)
// and the gate input number of each pair.
type batchJob struct {
	set *seqio.InputSet
	ids []int
}

// fleetBench drives a workload's batches through RunResilient, one goroutine
// per fleet member, each owning its member exclusively.
type fleetBench struct {
	rc     runConfig
	socs   []*soc.SoC
	jobs   []batchJob // the workload's batches
	wide   []batchJob // two of them merged: the high-load batch shape
	opts   soc.ResilientOptions
	gate   *gate
	cursor atomic.Int64 // next batch to run
}

// supportedPair draws pairs until both reads fit the hardware's length cap,
// so no batch falls back to software for want of support.
func supportedPair(g *seqgen.Generator, length int, errRate float64, lenCap int) seqio.Pair {
	for {
		p := g.Pair(0, length, errRate)
		if len(p.A) <= lenCap && len(p.B) <= lenCap {
			return p
		}
	}
}

// newJob builds a batch from gate inputs, renumbering the pairs 1..n.
func newJob(all []seqio.Pair, ids []int) batchJob {
	set := &seqio.InputSet{Pairs: make([]seqio.Pair, len(ids))}
	for i, id := range ids {
		set.Pairs[i] = seqio.Pair{ID: uint32(i + 1), A: all[id].A, B: all[id].B}
	}
	return batchJob{set: set, ids: ids}
}

// runDevice is a closed-loop offline workload over a fleet of nproc members.
func runDevice(rc runConfig, spec deviceSpec) (*report, error) {
	cfg := core.ChipConfig()
	members := fleetSize()
	readLen, poolJobs := spec.readLen, spec.poolJobs
	if rc.small {
		readLen, poolJobs = spec.smallLen, 2
	}
	gen := seqgen.New(rc.seed, rc.seed^0x5EEDB0A7)
	f := &fleetBench{rc: rc, opts: soc.ResilientOptions{Backtrace: spec.backtrace, Verify: spec.verify}}
	var all []seqio.Pair
	var ids [][]int
	for j := 0; j < poolJobs; j++ {
		var job []int
		for _, rate := range spec.errRates {
			p := supportedPair(gen, readLen, rate, cfg.MaxReadLenCap)
			job = append(job, len(all))
			all = append(all, seqio.Pair{ID: uint32(len(all)), A: p.A, B: p.B})
		}
		ids = append(ids, job)
	}
	for j := range ids {
		f.jobs = append(f.jobs, newJob(all, ids[j]))
		pair := append(append([]int(nil), ids[j]...), ids[(j+1)%len(ids)]...)
		f.wide = append(f.wide, newJob(all, pair))
	}
	f.gate = newGate(cfg, all, spec.backtrace, rc.corrupt)

	m := map[string]float64{}
	socs, setup, err := medianSetup(setupReps(rc), func() ([]*soc.SoC, error) {
		_, s, err := soc.NewFleet(cfg, members, deviceMem)
		return s, err
	}, func([]*soc.SoC) {})
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup
	f.socs = socs
	f.closedLoop(f.jobs, 0, poolJobs) // warm-up: every batch once
	f.closedLoop(f.jobs, span(rc, 0.05), 0)

	if !rc.trace {
		f.untraced(m)
		m["ok_frac"] = 1 - f.gate.failFrac()
		return &report{metrics: m, gate: f.gate}, nil
	}
	if err := f.traced(spec, all, m); err != nil {
		return nil, err
	}
	m["fail_frac"] = f.gate.failFrac()
	return &report{metrics: m, gate: f.gate}, nil
}

// closedLoop keeps every fleet member busy, each running the next of jobs as
// soon as its previous one returns, until dur has passed or, when count > 0,
// until that many batches have started.
//
// Its times are process CPU time. A closed-loop batch never waits, so on a
// CPU of its own its CPU time is its wall time; on a shared virtual machine
// the CPU time leaves out what the hypervisor stole. A batch's cost is the
// process CPU time that passed while it ran, over the number of members, and
// the phase rate is the pairs answered per CPU second per member.
func (f *fleetBench) closedLoop(jobs []batchJob, dur time.Duration, count int) phase {
	deadline := time.Now().Add(dur)
	stop := f.cursor.Load() + int64(count)
	members := float64(len(f.socs))
	start, cpu0 := time.Now(), cpuTime()
	type batchTime struct{ at, cost, late time.Duration }
	var mu sync.Mutex
	var ph phase
	var times []batchTime
	var wg sync.WaitGroup
	for w := range f.socs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var own []batchTime
			var pairs, failed int
			freed := time.Now()
			for {
				if count == 0 && !time.Now().Before(deadline) {
					break
				}
				k := f.cursor.Add(1) - 1
				if count > 0 && k >= stop {
					break
				}
				job := jobs[k%int64(len(jobs))]
				t0, c0 := time.Now(), cpuTime()
				rep, err := f.socs[w].RunResilient(job.set, f.opts)
				c := cpuTime() - c0
				own = append(own, batchTime{at: t0.Sub(start), cost: time.Duration(float64(c) / members), late: t0.Sub(freed)})
				freed = time.Now()
				if f.check(job, rep, err) {
					pairs += len(job.ids)
				} else {
					failed++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			times = append(times, own...)
			ph.pairs += pairs
			ph.failed += failed
		}(w)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.rate = float64(ph.pairs) / ((cpuTime() - cpu0).Seconds() / members)
	// Time order across members.
	sort.Slice(times, func(i, j int) bool { return times[i].at < times[j].at })
	for _, t := range times {
		ph.lat = append(ph.lat, millis(t.cost))
		ph.late = append(ph.late, millis(t.late))
	}
	return ph
}

// check passes one batch's outcomes through the gate.
func (f *fleetBench) check(job batchJob, rep *soc.ResilientReport, err error) bool {
	if err != nil {
		f.gate.miss(len(job.ids))
		return false
	}
	ok := true
	for i, o := range rep.Outcomes {
		if !f.gate.check(job.ids[i], o.Result) {
			ok = false
		}
	}
	return ok
}

// untraced alternates rounds of the workload's batches (low) and of batches
// twice that size (high) on the whole fleet, each round one pass over the
// batches, until its share of the run is used. pairs_per_s is the fleet's
// rate on the workload's batches; max_rate_pps the higher rate of the two
// shapes, as bigger batches spread the per-batch costs over more pairs.
func (f *fleetBench) untraced(m map[string]float64) {
	f.cursor.Store(0)
	runtime.GC()
	a0 := allocBytes()
	heap := startHeapSampler()
	deadline := time.Now().Add(span(f.rc, 0.85))
	var low, high []phase
	for len(low) < minRounds || time.Now().Before(deadline) {
		low = append(low, f.closedLoop(f.jobs, 0, len(f.jobs)))
		high = append(high, f.closedLoop(f.wide, 0, len(f.wide)))
	}
	m["peak_heap_mib"] = heap.finish()
	pairs := 0
	for r := range low {
		pairs += low[r].pairs + high[r].pairs
	}
	m["alloc_kib_per_pair"] = float64(allocBytes()-a0) / 1024 / float64(max(pairs, 1))
	meanCost := func(ph phase) float64 { return mean(ph.lat) }
	p99Cost := func(ph phase) float64 { return p99(ph.lat) }
	m["mean_ms.low"] = fastRounds(low, meanCost, false)
	m["p99_ms.low"] = fastRounds(low, p99Cost, false)
	m["mean_ms.high"] = fastRounds(high, meanCost, false)
	m["p99_ms.high"] = fastRounds(high, p99Cost, false)
	rate := func(ph phase) float64 { return ph.rate }
	lowRate, highRate := fastRounds(low, rate, true), fastRounds(high, rate, true)
	m["pairs_per_s"] = lowRate
	m["max_rate_pps"] = max(lowRate, highRate)
	fmt.Fprintf(f.rc.log, "rounds=%d of %d batches; pairs per CPU second by round (low/high):", len(low), len(f.jobs))
	for r := range low {
		fmt.Fprintf(f.rc.log, " %.4g/%.4g", low[r].rate, high[r].rate)
	}
	fmt.Fprintln(f.rc.log)
}

// traced measures the fleet once untraced and once under the CPU profiler,
// then the serve tier on the same batches, then every layer on one batch.
func (f *fleetBench) traced(spec deviceSpec, all []seqio.Pair, m map[string]float64) error {
	plain := f.closedLoop(f.jobs, span(f.rc, 0.25), 0)
	m["loadgen.late_p99_ms"] = quantile(plain.late, 0.99)
	prof, err := startCPUProfile(f.rc)
	if err != nil {
		return err
	}
	profiled := f.closedLoop(f.jobs, span(f.rc, 0.25), 0)
	if err := prof.stop(); err != nil {
		return err
	}
	m["trace.overhead_frac"] = (plain.rate - profiled.rate) / plain.rate

	// The serve tier on the same batches: one request per batch.
	rig, err := newServeRig(len(f.socs))
	if err != nil {
		return err
	}
	var reqs []*request
	for _, job := range f.jobs {
		pairs := make([]seqio.Pair, len(job.ids))
		for i, id := range job.ids {
			pairs[i] = all[id]
		}
		q, err := newRequest("offline", pairs, spec.backtrace)
		if err != nil {
			rig.close()
			return err
		}
		reqs = append(reqs, q)
	}
	rounds := spec.rounds
	if f.rc.small {
		rounds = 2
	}
	sample := sampleInSystem(rig.srv.Handler())
	probeServe(rig, reqs, spec.backtrace, rounds, f.rc.seed, f.gate, m)
	m["serve.in_system_p99"] = quantile(sample(), 0.99)
	err = serveCounters(rig.srv.Handler(), m)
	final := rig.close()
	if err != nil {
		return err
	}
	if err := checkIdentity(f.rc, final); err != nil {
		return err
	}

	shape := layerShape{pairs: f.jobs[0].set.Pairs, backtrace: spec.backtrace, verify: spec.verify, reps: layerReps(f.rc)}
	if err := probeLayers(core.ChipConfig(), shape, m); err != nil {
		return err
	}
	return prof.report(f.rc)
}
