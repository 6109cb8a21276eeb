// Package serve is the production serving layer over the simulated WFAsic
// fleet: a no-drop alignment service with admission control, backpressure and
// graceful degradation. It composes the two robustness guarantees the lower
// layers already prove — soc.RunResilient's "every pair is always answered"
// invariant (retry/reset/salvage + software-WFA fallback) and the
// interprocedural isolation proof that Machines share no state (so a fleet
// of them can run on a goroutine pool) — into the deployment shape the paper
// targets: a datacenter accelerator absorbing bursty short-read traffic.
//
// The request path is a ladder of bounded stages, each of which either
// forwards or sheds — never queues unboundedly:
//
//	admission (validate, per-tenant token bucket, bounded in-system budget)
//	  -> batcher (coalesce small pairs into one §4.2 input-set device job)
//	  -> scheduler (device fleet with per-device circuit breakers,
//	                software-WFA worker tier as the degradation floor)
//
// The service-level invariant, proven under chaos by the seeded soak test:
// every admitted pair receives exactly one answer (hardware or software
// fallback), every non-admitted pair is shed with an explicit 429/503, and
// HardwarePairs + FallbackPairs + DeadlinePairs + Shed == Submitted. Device
// health walks healthy -> quarantined -> probing with exponential backoff;
// with the whole fleet quarantined the software tier still answers
// everything, so degradation is a slope, not a cliff.
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/seqio"
	"repro/internal/soc"
)

// deviceMemBytes is each device's main-memory size. A serving device only
// ever holds one coalesced batch: a default 64-pair batch at the 10 kbp read
// cap has a 1.3 MB input image, which leaves most of the 8 MiB for the result
// stream. A batch that still does not fit is not dropped — RunResilient
// answers its pairs with the software WFA. The size costs neither memory nor
// time until a batch writes it: the memory backs only the prefix batches
// have written, and between attempts its dirty watermark bounds the clear to
// the bytes the batch wrote.
const deviceMemBytes = 8 << 20

// The zero-value defaults of Config's fleet, admission and batching knobs.
// They are exported so that callers mirroring a default Server (the
// wfasic-serve flags) use the same values.
const (
	DefaultDevices         = 2
	DefaultSoftwareWorkers = 2
	DefaultQueueLimit      = 4096
	DefaultBatchPairs      = 64
	DefaultBatchDelay      = 2 * time.Millisecond
)

// Config parameterizes a Server. The zero value of every knob selects a
// validated default; invalid explicit values are rejected by Validate.
type Config struct {
	// Devices is the number of simulated WFAsic devices in the fleet.
	// 0 means 2.
	Devices int
	// SoftwareWorkers is the number of pure-software WFA workers — the
	// degradation floor that keeps answering when devices are quarantined.
	// 0 means 2. The scheduler requires at least one.
	SoftwareWorkers int
	// Core is the per-device accelerator configuration; the zero value
	// selects core.ChipConfig().
	Core core.Config

	// QueueLimit bounds the pairs admitted but not yet answered (queued or
	// in flight anywhere in the service). Admission past the bound sheds
	// with 429 + Retry-After instead of growing a queue. 0 means 4096.
	QueueLimit int
	// BatchPairs is the largest device job the batcher assembles; 0 means 64.
	BatchPairs int
	// BatchDelay bounds how long a partial batch may wait for companions
	// before it is flushed anyway; 0 means 2ms.
	BatchDelay time.Duration

	// MaxPairsPerRequest bounds one Submit/HTTP request; 0 means 256.
	MaxPairsPerRequest int
	// DefaultTimeout bounds HTTP requests that specify no timeout_ms of
	// their own; 0 means no default deadline.
	DefaultTimeout time.Duration

	// TenantRate is the per-tenant token-bucket refill rate in pairs/second;
	// 0 disables per-tenant quotas. Negative values are rejected.
	TenantRate float64
	// TenantBurst is the bucket depth in pairs; 0 means max(BatchPairs,
	// MaxPairsPerRequest) so one full request always fits a quiet bucket.
	TenantBurst int

	// BreakerThreshold is how many consecutive bad device batches (resets,
	// hangs, bus faults, fallbacks or run errors) trip the circuit breaker;
	// 0 means 2.
	BreakerThreshold int
	// ProbeBackoffMin/Max bound the quarantine window: the first quarantine
	// sleeps Min, each further failed probe doubles it up to Max.
	// Zeros mean 50ms and 2s.
	ProbeBackoffMin time.Duration
	ProbeBackoffMax time.Duration

	// Resilient tunes the per-batch device run (MaxAttempts, UseIRQ,
	// Verify). Backtrace is per-request and ignored here. The zero value
	// selects RunResilient's own defaults — including integrity.ModeWitness
	// verification, so per-pair witnesses and the hardware SDC evidence gate
	// are on for every device batch. The shadow sampler's seed is re-derived
	// per device batch from Verify.Seed, so one policy covers a whole fleet
	// without the devices sampling in lockstep.
	Resilient soc.ResilientOptions

	// Now is the clock used by admission (token buckets, uptime); nil
	// means time.Now. Tests substitute a virtual clock for determinism.
	// The batcher's age flush always uses the real clock: it paces real
	// goroutines, not simulated time.
	Now func() time.Time
}

// withDefaults resolves the zero values. It does not validate.
func (c Config) withDefaults() Config {
	if c.Devices == 0 {
		c.Devices = DefaultDevices
	}
	if c.SoftwareWorkers == 0 {
		c.SoftwareWorkers = DefaultSoftwareWorkers
	}
	if c.Core.NumAligners == 0 {
		c.Core = core.ChipConfig()
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.BatchPairs == 0 {
		c.BatchPairs = DefaultBatchPairs
	}
	if c.BatchDelay == 0 {
		c.BatchDelay = DefaultBatchDelay
	}
	if c.MaxPairsPerRequest == 0 {
		c.MaxPairsPerRequest = 256
	}
	if c.TenantBurst == 0 {
		c.TenantBurst = c.BatchPairs
		if c.MaxPairsPerRequest > c.TenantBurst {
			c.TenantBurst = c.MaxPairsPerRequest
		}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 2
	}
	if c.ProbeBackoffMin == 0 {
		c.ProbeBackoffMin = 50 * time.Millisecond
	}
	if c.ProbeBackoffMax == 0 {
		c.ProbeBackoffMax = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Validate rejects unusable configurations (after default resolution).
func (c Config) Validate() error {
	d := c.withDefaults()
	if c.Devices < 0 {
		return fmt.Errorf("serve: Devices %d is negative", c.Devices)
	}
	if c.SoftwareWorkers < 0 {
		return fmt.Errorf("serve: SoftwareWorkers %d is negative", c.SoftwareWorkers)
	}
	if d.SoftwareWorkers < 1 {
		return fmt.Errorf("serve: at least one software worker is required (it is the no-drop floor)")
	}
	if c.QueueLimit < 0 {
		return fmt.Errorf("serve: QueueLimit %d is negative", c.QueueLimit)
	}
	if c.BatchPairs < 0 || d.BatchPairs > 0xFFFF {
		return fmt.Errorf("serve: BatchPairs %d outside [1, 65535] (device result IDs are 16-bit)", c.BatchPairs)
	}
	if c.BatchDelay < 0 || c.ProbeBackoffMin < 0 || c.ProbeBackoffMax < 0 || c.DefaultTimeout < 0 {
		return fmt.Errorf("serve: negative duration in BatchDelay/ProbeBackoffMin/ProbeBackoffMax/DefaultTimeout")
	}
	if d.ProbeBackoffMax < d.ProbeBackoffMin {
		return fmt.Errorf("serve: ProbeBackoffMax %v < ProbeBackoffMin %v", d.ProbeBackoffMax, d.ProbeBackoffMin)
	}
	if c.MaxPairsPerRequest < 0 {
		return fmt.Errorf("serve: MaxPairsPerRequest %d is negative", c.MaxPairsPerRequest)
	}
	if d.MaxPairsPerRequest > d.QueueLimit {
		return fmt.Errorf("serve: MaxPairsPerRequest %d exceeds QueueLimit %d: no full-size request could ever be admitted",
			d.MaxPairsPerRequest, d.QueueLimit)
	}
	if c.TenantRate < 0 {
		return fmt.Errorf("serve: TenantRate %v is negative", c.TenantRate)
	}
	if c.TenantBurst < 0 {
		return fmt.Errorf("serve: TenantBurst %d is negative", c.TenantBurst)
	}
	if d.BreakerThreshold < 1 {
		return fmt.Errorf("serve: BreakerThreshold %d < 1", c.BreakerThreshold)
	}
	if err := d.Core.Validate(); err != nil {
		return err
	}
	if err := d.Resilient.Validate(); err != nil {
		return err
	}
	return nil
}

// task is one admitted pair moving through the service. A task is owned by
// exactly one goroutine at a time (admission -> batcher -> one worker), so
// its fields need no locking; the final owner resolves it exactly once.
type task struct {
	tenant    string
	pair      seqio.Pair // ID is the client's; device-local IDs are assigned per batch
	backtrace bool
	ctx       context.Context
	done      chan outcome // buffered(1); exactly one send ever happens
}

// outcome is a task's final answer.
type outcome struct {
	res      soc.PairOutcome
	deadline bool // the request died before an answer was computed
}

// batch is one coalesced device job.
type batch struct {
	tasks     []*task
	backtrace bool
}

// Server is the alignment service. Build with New, start serving with
// Submit (or the HTTP handler from Handler), stop with Drain.
type Server struct {
	cfg     Config
	started time.Time
	metrics *Metrics
	buckets *bucketSet

	// admissionMu serializes Submit's intake sends against Drain closing
	// the intake channel (writers take RLock, Drain takes Lock).
	admissionMu sync.RWMutex
	draining    bool
	drainCh     chan struct{} // closed when Drain begins: wakes quarantine sleeps

	inSystem atomic.Int64   // admitted, not yet answered (the bounded budget)
	inflight sync.WaitGroup // one per admitted pair, Done at resolution

	intake   chan *task
	dispatch chan *batch
	spill    chan *task // single tasks rerouted to the software tier

	devices []*device

	batcherWG sync.WaitGroup
	deviceWG  sync.WaitGroup
	swWG      sync.WaitGroup
}

// device is one fleet member: a SoC plus its circuit-breaker state. All
// fields except the atomics are owned by the device's worker goroutine.
type device struct {
	id  int
	soc *soc.SoC

	faults fault.Mailbox // chaos handle: configs posted here apply between batches

	state        atomic.Int32 // deviceState, read by /healthz
	consecBad    int
	quarantines  int
	probeBackoff time.Duration

	// SDC suspicion state, owned by the worker goroutine; the milli-unit
	// atomic mirrors it for /metrics.
	suspicion      float64
	batchSeq       uint64
	suspicionMilli atomic.Int64

	perfCache atomic.Pointer[perfCacheEntry]
}

// deviceState is the breaker's position in the degradation ladder.
type deviceState int32

// The device-health state machine: healthy -> (BreakerThreshold consecutive
// bad batches) -> quarantined -> (backoff elapses) -> probing -> one good
// batch -> healthy, or one bad batch -> quarantined with doubled backoff.
const (
	deviceHealthy deviceState = iota
	deviceQuarantined
	deviceProbing
)

func (d deviceState) String() string {
	switch d {
	case deviceHealthy:
		return "healthy"
	case deviceQuarantined:
		return "quarantined"
	case deviceProbing:
		return "probing"
	}
	return "unknown"
}

// New builds and starts a Server: the device fleet, the software-worker
// tier and the batcher are running when it returns.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		started:  cfg.Now(),
		metrics:  newMetrics(),
		buckets:  newBucketSet(cfg.TenantRate, float64(cfg.TenantBurst)),
		drainCh:  make(chan struct{}),
		intake:   make(chan *task, cfg.QueueLimit),
		dispatch: make(chan *batch, cfg.Devices+cfg.SoftwareWorkers+1),
		spill:    make(chan *task, cfg.QueueLimit),
	}
	// The device backends are a soc.NewFleet: isolated machines built for
	// exactly the one-goroutine-per-member discipline deviceLoop runs them
	// under.
	_, socs, err := soc.NewFleet(cfg.Core, cfg.Devices, deviceMemBytes)
	if err != nil {
		return nil, err
	}
	for i, sc := range socs {
		d := &device{id: i, soc: sc, probeBackoff: cfg.ProbeBackoffMin}
		s.devices = append(s.devices, d)
	}
	s.batcherWG.Add(1)
	go s.batcherLoop()
	for _, d := range s.devices {
		s.deviceWG.Add(1)
		go s.deviceLoop(d)
	}
	for i := 0; i < cfg.SoftwareWorkers; i++ {
		s.swWG.Add(1)
		go s.softwareLoop()
	}
	return s, nil
}

// InjectFaults posts a fault configuration to one device's injector mailbox.
// The device applies it at its next safe point (between batches), so the
// swap never races the cycle loop. A zero Config quiesces the injector.
func (s *Server) InjectFaults(deviceID int, cfg fault.Config) error {
	if deviceID < 0 || deviceID >= len(s.devices) {
		return fmt.Errorf("serve: device %d out of range [0, %d)", deviceID, len(s.devices))
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.devices[deviceID].faults.Post(cfg)
	return nil
}

// Drain gracefully shuts the service down: admission stops (Submit sheds
// with ErrDraining), every already-admitted pair is answered, and all worker
// goroutines exit. It returns the final metrics snapshot. Drain is
// idempotent only in the sense that the first call wins; it must be called
// exactly once.
func (s *Server) Drain() *Metrics {
	s.admissionMu.Lock()
	s.draining = true
	close(s.drainCh) // wake quarantine sleeps so devices keep consuming
	close(s.intake)  // no Submit send can race: writers hold RLock
	s.admissionMu.Unlock()

	s.batcherWG.Wait() // batcher flushed everything and closed dispatch
	s.deviceWG.Wait()  // devices answered or respilled their batches
	close(s.spill)
	s.swWG.Wait() // software tier answered the rest

	// Every admitted pair is now answered: the stages above each drain
	// their input completely before exiting.
	s.inflight.Wait()
	return s.metrics
}

// DeviceStates returns each device's current breaker state, for /healthz.
func (s *Server) DeviceStates() []string {
	out := make([]string, len(s.devices))
	for i, d := range s.devices {
		out[i] = deviceState(d.state.Load()).String()
	}
	return out
}

// DeviceSuspicion returns each device's current SDC suspicion score in
// milli-units, for /metrics.
func (s *Server) DeviceSuspicion() []int64 {
	out := make([]int64, len(s.devices))
	for i, d := range s.devices {
		out[i] = d.suspicionMilli.Load()
	}
	return out
}
