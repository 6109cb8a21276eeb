package mem

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/invariant"
)

// Timing parameterizes the memory controller's AXI-Full service rate.
//
// Calibration: Table 1 of the paper reports the cycles the FPGA prototype
// needs to read one pair of sequences (75 / 376 / 3420 cycles for 100bp /
// 1Kbp / 10Kbp inputs). With the Section 4.2 image layout those pair sizes
// are 15 / 127 / 1253 sixteen-byte sections, and a linear fit gives an
// effective read throughput of ~2.69 cycles per beat plus a fixed per-pair
// overhead (modeled in the Extractor). 2.6875 = (BurstOverhead +
// BurstBeats*BeatCycles) / BurstBeats with the defaults below — i.e. a
// 16-beat burst window costs 43 cycles: 11 cycles of controller/DRAM setup
// and 2 cycles per beat.
type Timing struct {
	BeatCycles    int // cycles per 16-byte beat once a burst is open
	BurstBeats    int // beats per burst window
	BurstOverhead int // extra cycles to open each burst window
}

// DefaultTiming is the calibrated controller timing (see Timing).
var DefaultTiming = Timing{BeatCycles: 2, BurstBeats: 16, BurstOverhead: 11}

// Validate checks the timing parameters.
func (t Timing) Validate() error {
	if t.BeatCycles < 1 || t.BurstBeats < 1 || t.BurstOverhead < 0 {
		return fmt.Errorf("mem: invalid timing %+v", t)
	}
	return nil
}

// CyclesForBeats returns the controller service time for a back-to-back
// stream of n beats (used by analytic models; the ticking controller
// produces the same count).
func (t Timing) CyclesForBeats(n int) int64 {
	if n <= 0 {
		return 0
	}
	bursts := (n + t.BurstBeats - 1) / t.BurstBeats
	return int64(bursts)*int64(t.BurstOverhead) + int64(n)*int64(t.BeatCycles)
}

// Beat is one 16-byte bus transfer delivered to or taken from a port.
type Beat struct {
	Addr int64
	Data [BeatBytes]byte
}

// request is one in-flight DMA transaction.
type request struct {
	addr  int64
	beats int
	write bool
	// For writes the port supplies data beats through its writeQueue.
}

// BusFault is one AXI error response (SLVERR/DECERR-style) latched on a
// port: the transaction completed with an error and transferred no data.
type BusFault struct {
	Addr  int64
	Write bool
}

// Port is one AXI-Full master connection to the controller (the WFAsic DMA
// read engine, the DMA write engine, and the CPU each own one).
type Port struct {
	name string
	ctl  *Controller

	pending    []request
	delivered  []Beat // completed read beats awaiting the client
	writeQueue []Beat // beats the client queued for an in-flight write

	faults      []BusFault // error responses awaiting the client
	dropDeficit int        // write beats still owed to a faulted transaction

	BeatsRead    int64
	BeatsWritten int64
	WaitCycles   int64 // cycles spent with work pending but no grant
}

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// writeBusy reports whether the port has write-side state in flight: queued
// or granted write transactions, or undrained write data.
func (p *Port) writeBusy() bool {
	for _, r := range p.pending {
		if r.write {
			return true
		}
	}
	if p.ctl.active == p && p.ctl.cur.write {
		return true
	}
	return len(p.writeQueue) > 0 || p.dropDeficit > 0
}

// readBusy reports whether the port has a queued or granted read transaction.
func (p *Port) readBusy() bool {
	for _, r := range p.pending {
		if !r.write {
			return true
		}
	}
	return p.ctl.active == p && !p.ctl.cur.write
}

// RequestRead enqueues a read of `beats` 16-byte beats starting at addr.
//
// The WFAsic AXI engines own one transfer direction each, so issuing a read
// while the port has write-side state in flight would silently interleave
// the two streams — that is a client bug and trips an invariant.
func (p *Port) RequestRead(addr int64, beats int) {
	if beats <= 0 {
		return
	}
	if p.writeBusy() {
		// Guarded Failf keeps the ...any argument slice off the happy path.
		invariant.Failf("mem",
			"port %q: read issued at cycle %d while a write is in flight", p.name, p.ctl.cycle)
	}
	p.pending = append(p.pending, request{addr: addr, beats: beats})
}

// RequestWrite enqueues a write transaction; the data beats must be supplied
// (in order) with PushWriteBeat before they come due.
//
// Like RequestRead, issuing a write while a read transaction is queued or
// granted on the same port trips an invariant.
func (p *Port) RequestWrite(addr int64, beats int) {
	if beats <= 0 {
		return
	}
	if p.readBusy() {
		invariant.Failf("mem",
			"port %q: write issued at cycle %d while a read is in flight", p.name, p.ctl.cycle)
	}
	p.pending = append(p.pending, request{addr: addr, beats: beats, write: true})
}

// PushWriteBeat supplies the next data beat for the port's write stream.
func (p *Port) PushWriteBeat(b Beat) {
	if p.dropDeficit > 0 {
		// This beat belonged to a write transaction that already completed
		// with an AXI error; swallow it.
		p.dropDeficit--
		return
	}
	p.writeQueue = append(p.writeQueue, b)
}

// NextBeat pops one completed read beat, if any.
func (p *Port) NextBeat() (Beat, bool) {
	if len(p.delivered) == 0 {
		return Beat{}, false
	}
	b := p.delivered[0]
	p.delivered = p.delivered[1:]
	return b, true
}

// TakeFault pops the oldest AXI error response latched on the port, if any.
func (p *Port) TakeFault() (BusFault, bool) {
	if len(p.faults) == 0 {
		return BusFault{}, false
	}
	f := p.faults[0]
	p.faults = p.faults[1:]
	return f, true
}

// Reset discards all queued transactions, undelivered beats, queued write
// data and latched faults. The statistics counters survive.
func (p *Port) Reset() {
	p.pending = nil
	p.delivered = nil
	p.writeQueue = nil
	p.faults = nil
	p.dropDeficit = 0
}

// dropWriteBeats consumes n beats of the port's write stream without letting
// them reach memory; beats not pushed yet are swallowed on arrival.
func (p *Port) dropWriteBeats(n int) {
	if n >= len(p.writeQueue) {
		p.dropDeficit += n - len(p.writeQueue)
		p.writeQueue = p.writeQueue[:0]
		return
	}
	p.writeQueue = p.writeQueue[n:]
}

// Idle reports whether the port has no pending transactions and no undelivered
// beats.
func (p *Port) Idle() bool {
	return len(p.pending) == 0 && len(p.delivered) == 0
}

// PendingBeats reports how many beats remain across queued transactions.
func (p *Port) PendingBeats() int {
	n := 0
	for _, r := range p.pending {
		n += r.beats
	}
	return n
}

// Controller arbitrates the ports round-robin, running one transaction at a
// time to completion with the configured burst timing.
type Controller struct {
	mem    *Memory
	timing Timing
	ports  []*Port

	cycle int64

	// Active transaction state.
	active    *Port
	cur       request
	beatsDone int
	cooldown  int // cycles until the next beat completes
	rrNext    int

	inj   *fault.Injector // nil-safe; nil means no fault injection
	storm int             // remaining stall-storm cycles

	BusyCycles  int64
	IdleCycles  int64 // ticks with no transaction active and none granted
	StormCycles int64 // ticks frozen by an injected stall storm
}

// NewController builds a controller over the memory with the given timing.
func NewController(m *Memory, t Timing) *Controller {
	err := t.Validate()
	invariant.Checkf(err == nil, "mem", "controller built with invalid timing: %v", err)
	return &Controller{mem: m, timing: t}
}

// NewPort registers a new master port.
func (c *Controller) NewPort(name string) *Port {
	p := &Port{name: name, ctl: c}
	c.ports = append(c.ports, p)
	return p
}

// AttachInjector connects a fault injector (nil detaches).
func (c *Controller) AttachInjector(j *fault.Injector) { c.inj = j }

// CancelPort aborts any transaction the port owns and clears all port-side
// queues; the Machine's soft-reset and abort paths use it to scrub DMA state.
func (c *Controller) CancelPort(p *Port) {
	if c.active == p {
		c.active = nil
		c.cooldown = 0
	}
	p.Reset()
}

// ResetArbitration returns the round-robin grant pointer to port zero; part
// of the accelerator's soft reset so a post-reset job replays the exact
// grant order of a fresh machine. Any transaction still active on a
// non-canceled port is untouched.
func (c *Controller) ResetArbitration() { c.rrNext = 0 }

// Cycle returns the number of ticks elapsed.
func (c *Controller) Cycle() int64 { return c.cycle }

// Idle reports whether no transaction is active and no port has work queued.
func (c *Controller) Idle() bool {
	if c.active != nil {
		return false
	}
	for _, p := range c.ports {
		if len(p.pending) > 0 {
			return false
		}
	}
	return true
}

// Tick advances the controller one cycle.
func (c *Controller) Tick() {
	cycle := c.cycle + 1
	c.cycle = cycle
	if c.storm > 0 {
		// A stall storm freezes the whole controller: no arbitration, no
		// beat completion, no wait accounting.
		c.storm--
		c.StormCycles++
		return
	}
	if n := c.inj.StallStorm(cycle); n > 0 {
		c.storm = n - 1 // this cycle is the first frozen one
		c.StormCycles++
		return
	}
	if c.active == nil {
		c.arbitrate(cycle)
		if c.active == nil {
			c.IdleCycles++
			return
		}
	}
	c.BusyCycles++
	for _, p := range c.ports {
		if p != c.active && len(p.pending) > 0 {
			p.WaitCycles++
		}
	}
	if c.cooldown > 0 {
		c.cooldown--
		return
	}
	// A beat completes this cycle.
	c.completeBeat(cycle)
}

func (c *Controller) arbitrate(cycle int64) {
	n := len(c.ports)
	for i := 0; i < n; i++ {
		p := c.ports[(c.rrNext+i)%n]
		if len(p.pending) == 0 {
			continue
		}
		req := p.pending[0]
		p.pending = p.pending[1:]
		c.rrNext = (c.rrNext + i + 1) % n
		if !req.write && c.inj.LoseGrant(cycle, p.name, req.addr) {
			// The granted transaction vanishes: no data, no response. The
			// client's outstanding-beat accounting is now wrong and only the
			// watchdog or a reset clears it. Writes are exempt so the data
			// queue stays aligned with the surviving transactions.
			return
		}
		if c.inj.TransactionError(cycle, p.name, req.addr, req.write) {
			// SLVERR/DECERR-style response: the transaction completes with
			// an error and transfers nothing.
			if req.write {
				p.dropWriteBeats(req.beats)
			}
			p.faults = append(p.faults, BusFault{Addr: req.addr, Write: req.write})
			return
		}
		c.active = p
		c.cur = req
		c.beatsDone = 0
		// First beat: burst-open overhead plus the beat itself.
		c.cooldown = c.timing.BurstOverhead + c.timing.BeatCycles - 1
		c.cooldown += c.inj.ExtraBeatLatency(cycle, p.name, req.addr)
		return
	}
}

func (c *Controller) completeBeat(cycle int64) {
	p := c.active
	addr := c.cur.addr + int64(c.beatsDone)*BeatBytes
	if c.cur.write {
		if len(p.writeQueue) == 0 {
			// Data not ready: stall until the client supplies it.
			c.cooldown = 0
			return
		}
		b := p.writeQueue[0]
		p.writeQueue = p.writeQueue[1:]
		b.Addr = addr
		c.mem.WriteBeat(addr, &b.Data)
		p.BeatsWritten++
	} else {
		var b Beat
		b.Addr = addr
		c.mem.ReadBeat(addr, &b.Data)
		c.inj.CorruptDataBeat(cycle, p.name, addr, b.Data[:])
		p.delivered = append(p.delivered, b)
		p.BeatsRead++
	}
	c.beatsDone++
	if c.beatsDone >= c.cur.beats {
		c.active = nil
		return
	}
	// Next beat cost; re-open a burst window at each BurstBeats boundary.
	c.cooldown = c.timing.BeatCycles - 1
	if c.beatsDone%c.timing.BurstBeats == 0 {
		c.cooldown += c.timing.BurstOverhead
	}
	c.cooldown += c.inj.ExtraBeatLatency(cycle, p.name, addr+BeatBytes)
}
