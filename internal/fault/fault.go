// Package fault is the simulator's seeded, deterministic fault-injection
// layer. The memory controller, the Machine's DMA engines, the aligner
// wavefront RAM and the IRQ line all consult a single *Injector at tick
// granularity; every decision is drawn from one PCG stream seeded from
// Config.Seed, so a given (machine input, fault config) pair reproduces the
// exact same fault schedule, cycle counts and register traffic on every run.
//
// All hook methods are nil-safe: a nil *Injector injects nothing and costs
// nothing, and an Injector whose probabilities are all zero never perturbs
// the machine, so a fault-free run with the layer attached is cycle-for-cycle
// identical to a run without it.
package fault

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// Kind labels one class of injected fault.
type Kind uint8

const (
	// ReadError is an AXI read response error (SLVERR/DECERR-style): the
	// transaction is consumed but no data beats are delivered.
	ReadError Kind = iota
	// WriteError is an AXI write response error: the transaction and its
	// queued data beats are consumed but nothing reaches memory.
	WriteError
	// LostGrant silently drops a granted read transaction: no error response,
	// no data — the canonical way to hang a DMA engine.
	LostGrant
	// LatencySpike stretches one beat's service time by extra cycles.
	LatencySpike
	// StallStorm freezes the whole memory controller for a burst of cycles.
	StallStorm
	// DataFlip flips one bit in a delivered read data beat.
	DataFlip
	// WavefrontFlip flips a low-order bit of one live wavefront cell inside
	// an aligner.
	WavefrontFlip
	// OutputFlip flips one bit in an outgoing output-stream beat.
	OutputFlip
	// OutputDrop discards an outgoing output-stream beat, truncating the
	// result stream.
	OutputDrop
	// IRQDrop suppresses the completion interrupt for a finished job.
	IRQDrop
	// IRQSpurious raises the interrupt line while a job is still running.
	IRQSpurious

	numKinds
)

var kindNames = [numKinds]string{
	ReadError:     "read-error",
	WriteError:    "write-error",
	LostGrant:     "lost-grant",
	LatencySpike:  "latency-spike",
	StallStorm:    "stall-storm",
	DataFlip:      "data-flip",
	WavefrontFlip: "wavefront-flip",
	OutputFlip:    "output-flip",
	OutputDrop:    "output-drop",
	IRQDrop:       "irq-drop",
	IRQSpurious:   "irq-spurious",
}

// String returns the stable schedule-file name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Config selects which faults an Injector draws and how often. Probabilities
// are per consultation (per transaction grant, per beat, per tick — see each
// hook), in [0, 1].
type Config struct {
	// Seed fully determines the fault schedule for a given machine run.
	Seed uint64

	ReadErrorProb  float64 // per read-transaction grant
	WriteErrorProb float64 // per write-transaction grant
	LostGrantProb  float64 // per read-transaction grant
	LatencyProb    float64 // per beat completion
	LatencyMax     int     // max extra cycles per latency spike (>=1 if used)

	StallStormProb float64 // per controller tick while idle of storms
	StallStormMax  int     // max storm length in cycles (>=1 if used)

	DataFlipProb      float64 // per delivered read beat
	WavefrontFlipProb float64 // per aligner score step
	OutputFlipProb    float64 // per output-stream beat
	OutputDropProb    float64 // per output-stream beat
	IRQDropProb       float64 // per job completion
	IRQSpuriousProb   float64 // per running tick

	// MaxEvents caps the number of injected faults; 0 means unlimited. Once
	// the cap is reached every hook reports "no fault".
	MaxEvents int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	probs := []struct {
		name string
		p    float64
	}{
		{"ReadErrorProb", c.ReadErrorProb},
		{"WriteErrorProb", c.WriteErrorProb},
		{"LostGrantProb", c.LostGrantProb},
		{"LatencyProb", c.LatencyProb},
		{"StallStormProb", c.StallStormProb},
		{"DataFlipProb", c.DataFlipProb},
		{"WavefrontFlipProb", c.WavefrontFlipProb},
		{"OutputFlipProb", c.OutputFlipProb},
		{"OutputDropProb", c.OutputDropProb},
		{"IRQDropProb", c.IRQDropProb},
		{"IRQSpuriousProb", c.IRQSpuriousProb},
	}
	for _, pr := range probs {
		if pr.p < 0 || pr.p > 1 {
			return fmt.Errorf("fault: %s = %v outside [0, 1]", pr.name, pr.p)
		}
	}
	if c.LatencyProb > 0 && c.LatencyMax < 1 {
		return fmt.Errorf("fault: LatencyProb set but LatencyMax = %d < 1", c.LatencyMax)
	}
	if c.StallStormProb > 0 && c.StallStormMax < 1 {
		return fmt.Errorf("fault: StallStormProb set but StallStormMax = %d < 1", c.StallStormMax)
	}
	if c.MaxEvents < 0 {
		return fmt.Errorf("fault: MaxEvents = %d < 0", c.MaxEvents)
	}
	return nil
}

// Event records one injected fault.
type Event struct {
	Cycle int64
	Kind  Kind
	Port  string // injection point: port or unit name ("" when global)
	Addr  int64  // bus address or unit-local index, kind-dependent
	Arg   int    // kind-dependent payload (bit index, extra cycles, ...)
}

// Injector draws faults from a single seeded stream and logs every injection.
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	events []Event
	counts [numKinds]int64
	total  int64
}

// New builds an Injector from the config, or rejects an invalid one.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
	}, nil
}

func (j *Injector) capped() bool {
	return j.cfg.MaxEvents > 0 && j.total >= int64(j.cfg.MaxEvents)
}

// roll draws one Bernoulli trial at probability p. Zero-probability hooks
// never touch the PRNG, so adding a fault class to a schedule does not
// reshuffle the draws of the classes already present... within a hook; across
// hooks the stream is shared, which is exactly what makes the whole schedule
// a pure function of (seed, machine behavior).
func (j *Injector) roll(p float64) bool {
	if p <= 0 || j.capped() {
		return false
	}
	return j.rng.Float64() < p
}

func (j *Injector) record(cycle int64, kind Kind, port string, addr int64, arg int) {
	j.events = append(j.events, Event{Cycle: cycle, Kind: kind, Port: port, Addr: addr, Arg: arg}) //vet:allow hotalloc fault-campaign log; a quiescent injector never records
	j.counts[kind]++
	j.total++
}

// TransactionError reports whether the transaction granted this cycle should
// complete with an AXI error response instead of transferring data.
func (j *Injector) TransactionError(cycle int64, port string, addr int64, write bool) bool {
	if j == nil {
		return false
	}
	p, kind := j.cfg.ReadErrorProb, ReadError
	if write {
		p, kind = j.cfg.WriteErrorProb, WriteError
	}
	if !j.roll(p) {
		return false
	}
	j.record(cycle, kind, port, addr, 0)
	return true
}

// LoseGrant reports whether a granted read transaction should vanish without
// a response (the port never sees data or an error — a true hang source).
func (j *Injector) LoseGrant(cycle int64, port string, addr int64) bool {
	if j == nil || !j.roll(j.cfg.LostGrantProb) {
		return false
	}
	j.record(cycle, LostGrant, port, addr, 0)
	return true
}

// ExtraBeatLatency returns extra service cycles to add to the beat completing
// at addr, or 0.
func (j *Injector) ExtraBeatLatency(cycle int64, port string, addr int64) int {
	if j == nil || !j.roll(j.cfg.LatencyProb) {
		return 0
	}
	n := 1 + j.rng.IntN(j.cfg.LatencyMax)
	j.record(cycle, LatencySpike, port, addr, n)
	return n
}

// StallStorm returns a number of cycles the whole controller should freeze
// for, or 0. Consulted once per controller tick when no storm is active.
func (j *Injector) StallStorm(cycle int64) int {
	if j == nil || !j.roll(j.cfg.StallStormProb) {
		return 0
	}
	n := 1 + j.rng.IntN(j.cfg.StallStormMax)
	j.record(cycle, StallStorm, "", 0, n)
	return n
}

// CorruptDataBeat flips one bit of a delivered read beat in place and reports
// whether it did.
func (j *Injector) CorruptDataBeat(cycle int64, port string, addr int64, data []byte) bool {
	if j == nil || len(data) == 0 || !j.roll(j.cfg.DataFlipProb) {
		return false
	}
	bit := j.rng.IntN(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	j.record(cycle, DataFlip, port, addr, bit)
	return true
}

// FlipWavefront picks a cell index in [0, span) and a low-order bit (0-2) to
// flip in an aligner's live wavefront, or reports ok=false.
func (j *Injector) FlipWavefront(cycle int64, aligner int, span int) (idx, bit int, ok bool) {
	if j == nil || span <= 0 || !j.roll(j.cfg.WavefrontFlipProb) {
		return 0, 0, false
	}
	idx = j.rng.IntN(span)
	bit = j.rng.IntN(3)
	j.record(cycle, WavefrontFlip, fmt.Sprintf("aligner-%d", aligner), int64(idx), bit) //vet:allow hotalloc fault-campaign event labeling, only after a successful roll
	return idx, bit, true
}

// CorruptOutputBeat flips one bit of an outgoing output beat in place and
// reports whether it did.
func (j *Injector) CorruptOutputBeat(cycle int64, data []byte) bool {
	if j == nil || len(data) == 0 || !j.roll(j.cfg.OutputFlipProb) {
		return false
	}
	bit := j.rng.IntN(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	j.record(cycle, OutputFlip, "out", 0, bit)
	return true
}

// DropOutputBeat reports whether an outgoing output beat should be discarded,
// truncating the result stream.
func (j *Injector) DropOutputBeat(cycle int64) bool {
	if j == nil || !j.roll(j.cfg.OutputDropProb) {
		return false
	}
	j.record(cycle, OutputDrop, "out", 0, 0)
	return true
}

// DropIRQ reports whether the completion interrupt of a finishing job should
// be suppressed.
func (j *Injector) DropIRQ(cycle int64) bool {
	if j == nil || !j.roll(j.cfg.IRQDropProb) {
		return false
	}
	j.record(cycle, IRQDrop, "irq", 0, 0)
	return true
}

// SpuriousIRQ reports whether the interrupt line should be raised this tick
// even though the job is still running.
func (j *Injector) SpuriousIRQ(cycle int64) bool {
	if j == nil || !j.roll(j.cfg.IRQSpuriousProb) {
		return false
	}
	j.record(cycle, IRQSpurious, "irq", 0, 0)
	return true
}

// Total returns the number of faults injected so far. Nil-safe.
func (j *Injector) Total() int64 {
	if j == nil {
		return 0
	}
	return j.total
}

// Events returns a copy of the injection log in injection order. Nil-safe.
func (j *Injector) Events() []Event {
	if j == nil {
		return nil
	}
	out := make([]Event, len(j.events))
	copy(out, j.events)
	return out
}

// Counts returns per-kind injection counts. Nil-safe.
func (j *Injector) Counts() map[Kind]int64 {
	if j == nil {
		return nil
	}
	out := make(map[Kind]int64, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		if j.counts[k] > 0 {
			out[k] = j.counts[k]
		}
	}
	return out
}

// Schedule renders the full injection log as a stable, byte-comparable
// string: two runs with the same seed and machine inputs must produce equal
// schedules. Nil-safe.
func (j *Injector) Schedule() string {
	if j == nil {
		return "fault: no injector\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d events=%d\n", j.cfg.Seed, j.total)
	for _, e := range j.events {
		fmt.Fprintf(&b, "cycle=%d kind=%s port=%q addr=%#x arg=%d\n",
			e.Cycle, e.Kind, e.Port, e.Addr, e.Arg)
	}
	return b.String()
}
