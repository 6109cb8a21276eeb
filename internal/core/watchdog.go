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

// progressSig snapshots every completion counter in the datapath. Two equal
// snapshots mean the machine did no observable work in between; counters
// that can advance forever without real progress (controller busy cycles)
// are deliberately excluded.
type progressSig struct {
	beatsRead    int64
	beatsWritten int64
	inPushes     int64
	inPops       int64
	outPushes    int64
	outPops      int64
	transactions int64
	dispatched   int
	alignerBusy  int64
}

func (m *Machine) progress() progressSig {
	var busy int64
	for _, a := range m.aligners {
		busy += a.Stats.BusyCycles
	}
	return progressSig{
		beatsRead:    m.rdPort.BeatsRead,
		beatsWritten: m.wrPort.BeatsWritten,
		inPushes:     m.inFIFO.Pushes,
		inPops:       m.inFIFO.Pops,
		outPushes:    m.outFIFO.Pushes,
		outPops:      m.outFIFO.Pops,
		transactions: m.collector.Transactions,
		dispatched:   m.extractor.pairsDispatched,
		alignerBusy:  busy,
	}
}
