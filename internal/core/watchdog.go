package core

import "fmt"

// DefaultWatchdogCycles is the forward-progress window Machine.Run uses when
// Config.WatchdogCycles is zero. It must comfortably exceed the longest
// legitimate quiet stretch of the datapath (burst-open overheads, injected
// stall storms and latency spikes included).
const DefaultWatchdogCycles = 50_000

// HangError is the watchdog's structured hang diagnosis: Machine.Run saw no
// observable datapath activity for Stalled consecutive cycles. The snapshot
// fields localize the hang (a DMA engine still owed beats, a FIFO that never
// drained, pairs never dispatched, ...).
type HangError struct {
	Cycle        int64 // machine cycle at detection
	Stalled      int64 // cycles without observable forward progress
	ReadsPending int   // input beats the DMA read engine has not yet requested
	Outstanding  int   // beats requested from the bus but never delivered
	InFIFO       int   // input FIFO occupancy
	OutFIFO      int   // output FIFO occupancy
	Dispatched   int   // pairs handed to aligners so far
	Transactions int64 // output transactions produced so far
}

// Error renders the hang diagnosis with the DMA, FIFO and dispatch state
// the watchdog captured at the stall.
func (e *HangError) Error() string {
	return fmt.Sprintf(
		"core: watchdog: no forward progress for %d cycles (cycle %d: dma-rd pending=%d outstanding=%d, fifo in=%d out=%d, pairs dispatched=%d, transactions=%d)",
		e.Stalled, e.Cycle, e.ReadsPending, e.Outstanding, e.InFIFO, e.OutFIFO, e.Dispatched, e.Transactions)
}

// hangError snapshots the datapath into the watchdog's diagnosis after
// stalled cycles without progress. It runs on the failure path only.
//
//vet:coldpath
func (m *Machine) hangError(stalled int64) error {
	return &HangError{
		Cycle:        m.cycle,
		Stalled:      stalled,
		ReadsPending: m.readBeatsLeft,
		Outstanding:  m.outstanding,
		InFIFO:       m.inFIFO.Occupancy(),
		OutFIFO:      m.outFIFO.Occupancy(),
		Dispatched:   m.extractor.pairsDispatched,
		Transactions: m.collector.Transactions,
	}
}

// progress sums the datapath's completion counters: DMA beats moved, FIFO
// pushes and pops, output transactions, pairs dispatched and aligner busy
// cycles. Every term is a lifetime counter that only ever increases, so the
// sum changes exactly when one of them does, and a job start that zeroes
// the per-job counters cannot cancel an increment out. Two equal sums mean
// the machine did no observable work in between; counters that can advance
// forever without real progress (controller busy cycles) are deliberately
// excluded.
func (m *Machine) progress() int64 {
	sum := m.rdPort.BeatsRead + m.wrPort.BeatsWritten +
		m.inFIFO.Pushes + m.inFIFO.Pops + m.outFIFO.Pushes + m.outFIFO.Pops +
		m.collector.Emitted + m.extractor.Stats.PairsDispatched
	for _, a := range m.aligners {
		sum += a.Stats.BusyCycles
	}
	return sum
}
