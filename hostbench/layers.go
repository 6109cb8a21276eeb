package main

import (
	"fmt"
	"time"

	"repro/internal/align"
	"repro/internal/bt"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/mem"
	"repro/internal/seqio"
	"repro/internal/soc"
)

// btProbeMem is the memory of the SoC that re-runs a score-only batch with
// backtrace on for the bt.decode probe; long reads emit large streams.
const btProbeMem = 64 << 20

// layerShape is one batch as its workload hands it to the device layer.
type layerShape struct {
	pairs     []seqio.Pair // device-local IDs 1..n
	backtrace bool
	verify    integrity.Policy
	reps      int
}

// minProbe is the shortest stretch one probe sample times; fast calls are
// repeated until it has passed.
const minProbe = 20 * time.Millisecond

// probeLayers times each layer's public entry point on one batch, from
// outside, and the whole RunResilient call on the same batch. What the layer
// calls do not cover is the residual: output zeroing, stream parsing, the
// output CRC and bookkeeping.
func probeLayers(cfg core.Config, sh layerShape, m map[string]float64) error {
	n := float64(len(sh.pairs))
	set := &seqio.InputSet{Pairs: sh.pairs}
	sc, err := soc.New(cfg, deviceMem)
	if err != nil {
		return err
	}

	// soc: the resilient call as the workload makes it, warmed once.
	opts := soc.ResilientOptions{Backtrace: sh.backtrace, Verify: sh.verify}
	if _, err := sc.RunResilient(set, opts); err != nil {
		return err
	}
	// Where RunResilient staged the input image and placed the output
	// region, read back from the job registers it programmed.
	at := staging{input: int64(sc.Machine.Regs.InputAddr), output: int64(sc.Machine.Regs.OutputAddr)}
	var walls, allocs, attempts []float64
	for i := 0; i < sh.reps; i++ {
		a0 := allocBytes()
		t0 := time.Now()
		rep, err := sc.RunResilient(set, opts)
		if err != nil {
			return err
		}
		walls = append(walls, float64(time.Since(t0)))
		allocs = append(allocs, float64(allocBytes()-a0))
		attempts = append(attempts, float64(rep.Attempts))
	}
	resilient := time.Duration(median(walls))
	m["soc.resilient_us_per_pair"] = micros(resilient) / n
	m["soc.alloc_kib_per_batch"] = median(allocs) / 1024
	m["soc.attempts_per_batch"] = median(attempts)

	// seqio: the input image and its post-job audit.
	var img []byte
	build, err := medianPerCall(sh.reps, minProbe, func() error {
		var err error
		img, err = set.BuildImage()
		return err
	})
	if err != nil {
		return err
	}
	maxLen := set.EffectiveMaxReadLen()
	audit, err := medianPerCall(sh.reps, minProbe, func() error {
		if bad := seqio.AuditImage(img, maxLen, len(sh.pairs)); len(bad) != 0 {
			return fmt.Errorf("audit flagged %d pairs of a clean image", len(bad))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["seqio.build_image_us_per_pair"] = micros(build) / n
	m["seqio.audit_us_per_pair"] = micros(audit) / n

	// The output-region zeroing RunResilient does before every attempt.
	zero, err := medianPerCall(sh.reps, minProbe, func() error {
		sc.Memory.Write(at.output, make([]byte, sc.Memory.Size()-int(at.output)))
		return nil
	})
	if err != nil {
		return err
	}
	m["soc.zero_us_per_batch"] = micros(zero)

	// core: Configure/Start/PollIdle on the staged image.
	run, err := runMachine(sc, at, img, maxLen, len(sh.pairs), sh.backtrace, sh.reps)
	if err != nil {
		return err
	}
	m["core.run_us_per_pair"] = micros(run.wall) / n
	m["core.cycles_per_host_s"] = float64(run.cycles) / run.wall.Seconds()
	m["core.ns_per_executed_tick"] = float64(run.wall) / float64(run.executed)
	m["core.sim_cycles"] = float64(run.cycles)
	m["core.executed_ticks"] = float64(run.executed)

	// bt: decode the batch's backtrace stream. A score-only workload's batch
	// is re-run once with backtrace on, so the row is still a measurement.
	btRun := run
	if !sh.backtrace {
		btSoC, err := soc.New(cfg, btProbeMem)
		if err != nil {
			return err
		}
		if btRun, err = runMachine(btSoC, at, img, maxLen, len(sh.pairs), true, 1); err != nil {
			return err
		}
	}
	byID := make(map[uint32]seqio.Pair, len(sh.pairs))
	for _, p := range sh.pairs {
		byID[p.ID&core.BTIDMask] = p
	}
	dec := bt.NewDecoder(cfg)
	decode, err := medianPerCall(sh.reps, minProbe, func() error {
		als, _, err := dec.DecodeRegion(btRun.raw, btRun.count, byID, cfg.NumAligners > 1)
		if err == nil && len(als) != len(sh.pairs) {
			err = fmt.Errorf("decoded %d alignments from a %d-pair batch", len(als), len(sh.pairs))
		}
		return err
	})
	if err != nil {
		return err
	}
	m["bt.decode_us_per_pair"] = micros(decode) / n
	m["bt.output_bytes_per_pair"] = float64(len(btRun.raw)) / n

	// wfa: soc.SoftwareAlign score-only and with CIGAR, then the footprint
	// of the workload's own mode.
	score, err := medianPerCall(sh.reps, minProbe, func() error {
		for _, p := range sh.pairs {
			soc.SoftwareAlign(cfg, p, false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	cigars := make([]align.Result, len(sh.pairs))
	withCIGAR, err := medianPerCall(sh.reps, minProbe, func() error {
		for i, p := range sh.pairs {
			cigars[i], _ = soc.SoftwareAlign(cfg, p, true)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["wfa.score_us_per_pair"] = micros(score) / n
	m["wfa.cigar_us_per_pair"] = micros(withCIGAR) / n
	a0 := allocBytes()
	var wfBytes int64
	for _, p := range sh.pairs {
		_, st := soc.SoftwareAlign(cfg, p, sh.backtrace)
		wfBytes += st.WavefrontBytes
	}
	m["wfa.alloc_bytes_per_pair"] = float64(allocBytes()-a0) / n
	m["wfa.wavefront_bytes_per_pair"] = float64(wfBytes) / n

	// integrity: the per-pair witnesses RunResilient applies to accepted
	// results.
	bounds := integrity.NewBounds(cfg.Penalties, cfg.ScoreMax(), cfg.KMax)
	bnd, err := medianPerCall(sh.reps, minProbe, func() error {
		for i, p := range sh.pairs {
			if err := bounds.CheckSuccess(p.A, p.B, cigars[i].Score, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	replay, err := medianPerCall(sh.reps, minProbe, func() error {
		for i, p := range sh.pairs {
			if err := integrity.CheckCIGAR(cigars[i].CIGAR, p.A, p.B, cigars[i].Score, cfg.Penalties); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["integrity.bounds_ns_per_pair"] = float64(bnd) / n
	m["integrity.replay_us_per_pair"] = micros(replay) / n

	// The residual: the resilient call minus the layer calls it makes.
	covered := build + audit + run.wall + bnd
	if sh.backtrace {
		covered += decode + replay
	}
	if sh.verify.Mode == integrity.ModeFull {
		if sh.backtrace {
			covered += withCIGAR
		} else {
			covered += score
		}
	}
	m["soc.residual_us_per_pair"] = micros(resilient-covered) / n
	return nil
}

// machineRun is one accelerator job driven through the register-level API.
type machineRun struct {
	wall     time.Duration // median over the samples
	cycles   int64         // simulated cycles of one job
	executed int64         // ticks the event-skipping core actually executed
	raw      []byte        // the job's output region
	count    int           // 16-byte output transactions
}

// staging is where a job's input image and output region sit in device
// memory.
type staging struct{ input, output int64 }

// runMachine stages img and runs the job reps times through the soc.Driver
// Configure/Start/PollIdle sequence, which is core.Machine.Run underneath.
func runMachine(sc *soc.SoC, at staging, img []byte, maxLen, numPairs int, backtrace bool, reps int) (r machineRun, err error) {
	defer func() {
		// The memory model panics when an output stream overruns memory.
		if p := recover(); p != nil {
			err = fmt.Errorf("accelerator run aborted: %v", p)
		}
	}()
	job := soc.JobConfig{
		InputAddr:  uint64(at.input),
		OutputAddr: uint64(at.output),
		NumPairs:   numPairs,
		MaxReadLen: maxLen,
		Backtrace:  backtrace,
	}
	sc.Memory.Write(at.input, img)
	walls := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		_, skipped0 := sc.Machine.SkipStats()
		t0 := time.Now()
		if err := sc.Driver.Configure(job); err != nil {
			return r, err
		}
		if err := sc.Driver.Start(); err != nil {
			return r, err
		}
		cycles, err := sc.Driver.PollIdle(soc.DefaultRunMaxCycles)
		wall := time.Since(t0)
		if err != nil {
			return r, err
		}
		_, skipped1 := sc.Machine.SkipStats()
		walls = append(walls, float64(wall))
		r.cycles, r.executed = cycles, cycles-(skipped1-skipped0)
	}
	r.wall = time.Duration(median(walls))
	if r.count, err = sc.Driver.OutCount(); err != nil {
		return r, err
	}
	r.raw = sc.Memory.Read(at.output, r.count*mem.BeatBytes)
	return r, nil
}
