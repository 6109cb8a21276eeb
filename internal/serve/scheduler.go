package serve

import (
	"context"
	"time"

	"repro/internal/integrity"
	"repro/internal/seqio"
	"repro/internal/soc"
)

// SDC evidence feedback (the integrity layer's device-health loop). Every
// device carries a suspicion score: each batch adds its SDC evidence
// (witness rejects, shadow mismatches, hardware-evidence discards, audit
// failures) and each evidence-free batch multiplies the score by
// sdcSuspicionDecay. At sdcEscalateThreshold the device's verification
// escalates to integrity.ModeFull (every pair shadowed); at
// sdcQuarantineThreshold the batch verdict is forced bad so the breaker
// quarantines the device even if it still answers plausibly. Escalation
// needs a quarter of the evidence quarantine needs: a device with a few
// suspect results gets every answer checked, and only sustained evidence
// takes it out of service.
const (
	sdcSuspicionDecay      = 0.5
	sdcEscalateThreshold   = 2
	sdcQuarantineThreshold = 8
)

// deviceLoop is one fleet member's worker: pull a batch, apply any pending
// chaos config at this safe point, run the batch through the resilient
// ladder, and walk the breaker state machine on the verdict. A quarantined
// device sleeps out its backoff (interruptible by drain) and then probes
// with the next batch; while it sleeps the software tier keeps the queue
// moving, so quarantine degrades throughput without ever stalling it.
func (s *Server) deviceLoop(d *device) {
	defer s.deviceWG.Done()
	for {
		b, ok := <-s.dispatch
		if !ok {
			return
		}
		if cfg, pending := d.faults.TakePending(); pending {
			// Configs are validated at Post time, so this cannot fail; if it
			// somehow does, the old injector stays attached and the batch
			// still runs — a chaos-control glitch must never drop work.
			_ = d.soc.EnableFaults(cfg)
		}
		good := s.runDeviceBatch(d, b)
		s.breakerStep(d, good)
	}
}

// breakerStep advances the device-health state machine:
//
//	healthy --(BreakerThreshold consecutive bad batches)--> quarantined
//	quarantined --(backoff elapses)--> probing
//	probing --(good batch)--> healthy | --(bad batch)--> quarantined (backoff doubles)
func (s *Server) breakerStep(d *device, good bool) {
	st := deviceState(d.state.Load())
	if good {
		d.consecBad = 0
		if st == deviceProbing {
			s.metrics.ProbeSuccesses.Add(1)
			d.probeBackoff = s.cfg.ProbeBackoffMin
		}
		d.state.Store(int32(deviceHealthy))
		return
	}
	d.consecBad++
	if st == deviceProbing || d.consecBad >= s.cfg.BreakerThreshold {
		d.state.Store(int32(deviceQuarantined))
		d.quarantines++
		s.metrics.Quarantines.Add(1)
		s.quarantineSleep(d.probeBackoff)
		d.probeBackoff *= 2
		if d.probeBackoff > s.cfg.ProbeBackoffMax {
			d.probeBackoff = s.cfg.ProbeBackoffMax
		}
		d.consecBad = 0
		d.state.Store(int32(deviceProbing))
		s.metrics.Probes.Add(1)
	}
}

// quarantineSleep waits out a backoff window, returning early when drain
// begins so a sleeping device never delays shutdown.
func (s *Server) quarantineSleep(dur time.Duration) {
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.drainCh:
	}
}

// latestDeadline returns the latest context deadline across the live tasks,
// or ok=false when any member has no deadline (the batch then runs
// uncancelled: some member is willing to wait forever).
func latestDeadline(tasks []*task) (time.Time, bool) {
	var latest time.Time
	for _, t := range tasks {
		dl, ok := t.ctx.Deadline()
		if !ok {
			return time.Time{}, false
		}
		if dl.After(latest) {
			latest = dl
		}
	}
	return latest, true
}

// runDeviceBatch runs one coalesced job on one device and reports whether
// the batch was clean (no resets, hangs, bus faults, rejects or fallbacks —
// the breaker's "good" verdict). Tasks the hardware cannot answer are never
// dropped: a failed run reroutes every still-live member to the software
// tier, and members whose request already died get a deadline outcome.
func (s *Server) runDeviceBatch(d *device, b *batch) (good bool) {
	live := b.tasks[:0:0]
	for _, t := range b.tasks {
		if t.expired() {
			s.resolveTask(t, outcome{deadline: true})
			continue
		}
		live = append(live, t)
	}
	if len(live) == 0 {
		return true
	}

	// Device-local IDs 1..n keep the result stream's 16-bit ID field unique
	// regardless of what client IDs the pairs arrived with; answers map back
	// to tasks by input order.
	pairs := make([]seqio.Pair, len(live))
	for i, t := range live {
		pairs[i] = seqio.Pair{ID: uint32(i + 1), A: t.pair.A, B: t.pair.B}
	}
	set := &seqio.InputSet{Pairs: pairs}

	ctx := context.Background()
	if dl, ok := latestDeadline(live); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}

	opts := s.cfg.Resilient
	opts.Backtrace = b.backtrace
	// Re-seed the shadow sampler per device batch: device-local pair IDs
	// repeat 1..n every batch, so a fixed seed would sample the same slots
	// forever. Escalated devices shadow-verify everything.
	d.batchSeq++
	opts.Verify.Seed ^= uint64(d.id)<<32 ^ d.batchSeq*0x9E3779B97F4A7C15
	if opts.Verify.Mode != integrity.ModeOff && d.suspicion >= sdcEscalateThreshold {
		opts.Verify = integrity.Policy{Mode: integrity.ModeFull}
		s.metrics.SDCEscalations.Add(1)
	}
	rep, err := d.soc.RunResilientCtx(ctx, set, opts)
	if err != nil {
		// Nothing was delivered (deadline abort or a driver-level failure).
		// Live members degrade to the software tier; dead ones are answered
		// with a deadline outcome. Either way every task is resolved.
		for _, t := range live {
			if t.expired() {
				s.resolveTask(t, outcome{deadline: true})
			} else {
				s.respill(t)
			}
		}
		return false
	}

	for i, t := range live {
		s.resolveTask(t, outcome{res: soc.PairOutcome{ID: t.pair.ID, Result: rep.Outcomes[i].Result}})
	}
	s.metrics.HardwarePairs.Add(int64(rep.HardwarePairs))
	s.metrics.FallbackPairs.Add(int64(rep.FallbackPairs))
	s.metrics.DeviceRetries.Add(int64(rep.Retries))
	s.metrics.DeviceResets.Add(int64(rep.Resets))
	s.metrics.HangErrors.Add(int64(rep.HangErrors))
	s.metrics.BusErrors.Add(int64(rep.BusErrors))
	s.metrics.FaultEvents.Add(rep.FaultEvents)
	s.metrics.WitnessChecks.Add(int64(rep.WitnessChecks))
	s.metrics.WitnessRejects.Add(int64(rep.WitnessRejects))
	s.metrics.ShadowSampled.Add(int64(rep.ShadowSampled))
	s.metrics.ShadowMismatches.Add(int64(rep.ShadowMismatches))
	s.metrics.SDCHardwareEvents.Add(int64(rep.HwSDCInput + rep.HwSDCWavefront + rep.OutCRCMismatches))
	s.metrics.IntegrityDiscards.Add(int64(rep.IntegrityDiscards))
	s.metrics.AuditFailures.Add(int64(rep.AuditFailures))

	if snap, perr := d.soc.Driver.PerfSnapshot(); perr == nil {
		d.perfCache.Store(&perfCacheEntry{Snap: snap})
	}

	// Suspicion update: SDC evidence accumulates, evidence-free batches decay
	// it. Every class below is either a witness catching a wrong answer or
	// the hardware reporting corruption it absorbed — both mean this device's
	// silicon is flipping bits even when the batch still completed.
	evidence := float64(rep.WitnessRejects + rep.ShadowMismatches + rep.IntegrityDiscards + rep.AuditFailures)
	if evidence > 0 {
		d.suspicion += evidence
	} else {
		d.suspicion *= sdcSuspicionDecay
	}
	d.suspicionMilli.Store(int64(d.suspicion * 1000))
	if d.suspicion >= sdcQuarantineThreshold {
		// Enough accumulated SDC evidence is a health verdict of its own:
		// force the breaker's bad path even if this batch looked clean.
		s.metrics.SDCQuarantines.Add(1)
		return false
	}

	return rep.Resets == 0 && rep.HangErrors == 0 && rep.BusErrors == 0 &&
		rep.ConfigRejects == 0 && rep.DecodeFailures == 0 &&
		rep.ValidationRejects == 0 && rep.FallbackPairs == 0 &&
		rep.IntegrityDiscards == 0 && rep.AuditFailures == 0
}

// respill reroutes one live task from a failed device batch to the
// software tier. The spill channel's capacity equals the in-system budget,
// so the send can never block.
func (s *Server) respill(t *task) {
	s.metrics.Respills.Add(1)
	s.spill <- t
}

// softwareLoop is one software-WFA worker: the degradation floor. It
// consumes both the respill queue and the main dispatch queue — so when the
// whole device fleet is quarantined the service keeps answering, just
// slower, and when the fleet is healthy the tiers share the load
// work-conservingly.
func (s *Server) softwareLoop() {
	defer s.swWG.Done()
	sa := soc.NewSoftwareAligner(s.cfg.Core)
	dispatch, spill := s.dispatch, s.spill
	for dispatch != nil || spill != nil {
		select {
		case b, ok := <-dispatch:
			if !ok {
				dispatch = nil
				continue
			}
			for _, t := range b.tasks {
				s.runSoftwareTask(sa, t)
			}
		case t, ok := <-spill:
			if !ok {
				spill = nil
				continue
			}
			s.runSoftwareTask(sa, t)
		}
	}
}

// runSoftwareTask answers one pair with the worker's pure-software WFA —
// a soc.SoftwareAligner, the same definition the resilient fallback and the
// ModeFull shadow oracle use, which is what makes the software tier
// answer-for-answer interchangeable with the hardware path.
func (s *Server) runSoftwareTask(sa *soc.SoftwareAligner, t *task) {
	if t.expired() {
		s.resolveTask(t, outcome{deadline: true})
		return
	}
	res, _ := sa.Align(t.pair, t.backtrace)
	s.metrics.FallbackPairs.Add(1)
	s.resolveTask(t, outcome{res: soc.PairOutcome{ID: t.pair.ID, Result: res}})
}
