package core

import (
	"repro/internal/integrity"
	"repro/internal/invariant"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Collector implements both Collector variants of Section 4.4. With
// backtrace enabled (Collector BT) it splits each origin block into 16-byte
// transactions of 10 payload bytes plus 6 info bytes (block counter, Last
// flag, alignment ID) and terminates each alignment with a score-record
// transaction. With backtrace disabled (Collector NBT) it merges four
// 4-byte result records per transaction, attaching no extra information.
type Collector struct {
	cfg       Config
	btEnabled bool
	outFIFO   *sim.FIFO[[mem.BeatBytes]byte]
	aligners  []*AlignerHW
	rr        int

	// BT chunking state. chunk is the current origin block, copied out of
	// the Aligner's arena when the Collector takes it and zero-padded to
	// whole payload chunks; chunk[chunkOff:] is still to be emitted.
	chunkID  uint32
	chunk    []byte
	chunkOff int
	counters map[uint32]uint32

	// NBT merge buffer.
	nbtBuf []NBTRecord

	// Completion tracking.
	resultsSeen int
	numPairs    int

	// onResult lets the Machine record per-pair timing as results stream
	// out.
	onResult func(id uint32, rec ScoreRecord, a *AlignerHW)

	Transactions int64

	// outCRC is the per-job CRC32C over every output transaction pushed
	// into the output FIFO, latched into RegOutCRC each cycle. It runs on
	// the pre-FIFO side, so output-path faults (flipped or dropped beats in
	// the DMA write engine) make the memory image disagree with it.
	outCRC uint32
	// crcBeat is outCRC's input: checksumming push's parameter would move
	// every output beat to the heap.
	crcBeat [mem.BeatBytes]byte

	// Emitted and BackpressureCycles are monotone over the machine's lifetime
	// (they survive Reset/Configure, unlike Transactions, which feeds the
	// per-job RegOutCount register) — the perf layer windows them by delta.
	Emitted            int64
	BackpressureCycles int64 // collector ticks blocked by a full output FIFO
}

// NewCollector wires the collector between the Aligners and the output FIFO.
func NewCollector(cfg Config, outFIFO *sim.FIFO[[mem.BeatBytes]byte], aligners []*AlignerHW) *Collector {
	return &Collector{cfg: cfg, outFIFO: outFIFO, aligners: aligners, counters: map[uint32]uint32{}}
}

// Configure latches the job parameters.
func (c *Collector) Configure(numPairs int, btEnabled bool, onResult func(uint32, ScoreRecord, *AlignerHW)) {
	c.numPairs = numPairs
	c.btEnabled = btEnabled
	c.onResult = onResult
	// clear keeps the map's buckets, so repeat jobs insert without growing.
	clear(c.counters)
	c.chunk = c.chunk[:0]
	c.chunkOff = 0
	c.nbtBuf = c.nbtBuf[:0]
	c.resultsSeen = 0
	c.Transactions = 0
	c.outCRC = 0
}

// Reset clears all chunking, merge and completion state; the machine's
// scrub path uses it so a fresh Configure starts from nothing.
func (c *Collector) Reset() {
	c.btEnabled = false
	c.rr = 0
	c.chunkID = 0
	c.chunk = c.chunk[:0]
	c.chunkOff = 0
	clear(c.counters)
	c.nbtBuf = c.nbtBuf[:0]
	c.resultsSeen = 0
	c.numPairs = 0
	c.onResult = nil
	c.Transactions = 0
	c.outCRC = 0
}

// Done reports whether every result has been seen and fully written out.
func (c *Collector) Done() bool {
	return c.resultsSeen >= c.numPairs && c.chunkOff == len(c.chunk) && len(c.nbtBuf) == 0
}

// Tick advances the collector: at most one output transaction per cycle.
func (c *Collector) Tick() {
	if c.outFIFO.Full() {
		c.BackpressureCycles++
		return
	}
	// Continue chunking the current BT block.
	if c.chunkOff < len(c.chunk) {
		c.emitBTChunk()
		return
	}
	// Pull the next entry from the Aligners, round-robin.
	n := len(c.aligners)
	for i := 0; i < n; i++ {
		idx := c.rr + i
		if idx >= n {
			idx -= n
		}
		a := c.aligners[idx]
		entry, ok := a.TakeOutput()
		if !ok {
			continue
		}
		next := idx + 1
		if next == n {
			next = 0
		}
		c.rr = next
		c.handle(entry, a)
		return
	}
	// Nothing pending: flush a partial NBT transaction once all results
	// arrived.
	if !c.btEnabled && c.resultsSeen >= c.numPairs && len(c.nbtBuf) > 0 {
		c.flushNBT()
	}
}

func (c *Collector) handle(entry obEntry, a *AlignerHW) {
	switch entry.kind {
	case obBlock:
		// Copy the block out of the Aligner's arena, which the Aligner
		// reuses once its outbox empties, and zero-pad it to a whole number
		// of 10-byte chunks (a 40-byte block fills exactly four
		// transactions, Section 4.4). Tick emits the whole chunk before
		// handle takes the next block.
		c.chunk = append(c.chunk[:0], entry.block...)
		for len(c.chunk)%BTPayloadBytes != 0 {
			c.chunk = append(c.chunk, 0)
		}
		c.chunkID = entry.id
		c.chunkOff = 0
		c.emitBTChunk()
	case obResult:
		c.resultsSeen++
		if c.onResult != nil {
			c.onResult(entry.id, entry.res, a)
		}
		if c.btEnabled {
			// "the last data that the Aligner provides to the Collector BT
			// is the alignment score ... sent to the memory in one memory
			// transaction" with the Last flag set.
			t := BTTransaction{
				Payload: entry.res.PackPayload(),
				Counter: c.counters[entry.id],
				Last:    true,
				ID:      entry.id & BTIDMask,
			}
			c.counters[entry.id]++
			c.push(t.Pack())
		} else {
			c.nbtBuf = append(c.nbtBuf, NBTRecord{
				Success: entry.res.Success,
				Score:   entry.res.Score,
				ID:      uint16(entry.id),
			})
			if len(c.nbtBuf) == NBTPerTransaction {
				c.flushNBT()
			}
		}
	}
}

func (c *Collector) emitBTChunk() {
	var t BTTransaction
	c.chunkOff += copy(t.Payload[:], c.chunk[c.chunkOff:])
	t.Counter = c.counters[c.chunkID]
	t.ID = c.chunkID & BTIDMask
	c.counters[c.chunkID]++
	c.push(t.Pack())
}

func (c *Collector) flushNBT() {
	var beat [mem.BeatBytes]byte
	for i, rec := range c.nbtBuf {
		packed := rec.Pack()
		copy(beat[i*NBTRecordBytes:], packed[:])
	}
	c.nbtBuf = c.nbtBuf[:0]
	c.push(beat)
}

func (c *Collector) push(beat [mem.BeatBytes]byte) {
	if !c.outFIFO.Push(beat) {
		invariant.Failf("core", "collector pushed into a full FIFO") // guarded by Tick
	}
	c.Transactions++
	c.Emitted++
	c.crcBeat = beat
	c.outCRC = integrity.CRCUpdate(c.outCRC, c.crcBeat[:])
}
