package core

import "fmt"

// TraceEvent is one observable milestone of the accelerator datapath — the
// software counterpart of watching waveforms in the gate-level simulations
// of Section 5.1.
type TraceEvent struct {
	Cycle     int64
	Component string // "machine", "extractor", "aligner0", "collector", ...
	Event     string // "job-start", "pair-start", "pair-done", ...
	Detail    string
}

// String renders the event as one log line. The component column fits
// "aligner999" — two-digit-and-beyond Aligner counts must not break the
// column alignment of interleaved logs.
func (e TraceEvent) String() string {
	return fmt.Sprintf("[%10d] %-12s %-12s %s", e.Cycle, e.Component, e.Event, e.Detail)
}

// Tracer receives machine events as they happen.
type Tracer func(TraceEvent)

// SetTracer installs (or, with nil, removes) the event tracer.
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// trace emits one event to the attached tracer. The datapath calls it only
// through typed //vet:coldpath helpers (those below and onPairDispatch),
// each behind an m.tracer != nil guard, so the argument boxing and the
// formatting happen only when observability is explicitly enabled, never in
// the nil-tracer steady state.
//
//vet:coldpath
func (m *Machine) trace(component, event, format string, args ...any) {
	if m.tracer == nil {
		return
	}
	m.tracer(TraceEvent{
		Cycle:     m.cycle,
		Component: component,
		Event:     event,
		Detail:    fmt.Sprintf(format, args...),
	})
}

//vet:coldpath
func (m *Machine) traceJobError(maxReadLen, numPairs int, in, out uint64) {
	m.trace("machine", "job-error", "rejected: maxReadLen=%d pairs=%d in=%#x out=%#x", maxReadLen, numPairs, in, out)
}

//vet:coldpath
func (m *Machine) traceJobStart(numPairs, maxReadLen int, bt bool, in, out uint64) {
	m.trace("machine", "job-start", "pairs=%d maxReadLen=%d bt=%v in=%#x out=%#x", numPairs, maxReadLen, bt, in, out)
}

//vet:coldpath
func (m *Machine) tracePairDone(id uint32, success bool, score uint16, cycles int64) {
	m.trace("collector", "pair-done", "id=%d success=%v score=%d align=%d cycles", id, success, score, cycles)
}

//vet:coldpath
func (m *Machine) traceJobDone(cycles, transactions int64) {
	m.trace("machine", "job-done", "cycles=%d transactions=%d", cycles, transactions)
}

//vet:coldpath
func (m *Machine) traceJobAbort(code uint32, addr uint64, cycles int64) {
	m.trace("machine", "job-abort", "code=%d addr=%#x cycles=%d", code, addr, cycles)
}

//vet:coldpath
func (m *Machine) traceSoftReset(running bool) {
	m.trace("machine", "soft-reset", "running=%v", running)
}

// traceAXIError reports a bus error response; dir is "rd" or "wr".
//
//vet:coldpath
func (m *Machine) traceAXIError(dir string, addr, cycle int64) {
	m.trace("machine", "axi-error", "%s addr=%#x cycle=%d", dir, addr, cycle)
}

//vet:coldpath
func (m *Machine) traceOutDrop(cycle int64) {
	m.trace("machine", "out-drop", "cycle=%d", cycle)
}

// CollectTrace is a convenience Tracer that appends into a slice.
func CollectTrace(into *[]TraceEvent) Tracer {
	return func(e TraceEvent) { *into = append(*into, e) }
}
