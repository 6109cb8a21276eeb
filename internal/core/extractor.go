package core

import (
	"encoding/binary"

	"repro/internal/integrity"
	"repro/internal/mem"
	"repro/internal/seqio"
	"repro/internal/sim"
)

// Extractor is the module of Section 4.2: it monitors the Aligners, and when
// one becomes idle it streams one pair out of the Input FIFO (16 bytes per
// clock cycle), decodes the bases to 2 bits, writes them into the idle
// Aligner's Input_Seq RAMs, and detects unsupported reads (over-length or
// containing 'N' bases).
type Extractor struct {
	cfg      Config
	inFIFO   *sim.FIFO[[mem.BeatBytes]byte]
	aligners []*AlignerHW

	// Runtime configuration (from the register file).
	maxReadLen int
	numPairs   int
	btEnabled  bool

	// Progress.
	pairsDispatched int

	// Current pair streaming state.
	loading        bool
	target         *AlignerHW
	beatIdx        int
	pairBeats      int
	id             uint32
	lenA, lenB     int
	rawA, rawB     []byte
	unsupported    bool
	crc            uint32              // running ingest CRC32C over the pair's beats
	crcBeat        [mem.BeatBytes]byte // CRC input: checksumming a parameter would move it to the heap
	expectWitness  uint32              // witness extracted from the header (0 = absent)
	dispatchWait   int
	pairStartCycle int64

	// readingByID records the per-pair reading cycles (Table 1's metric:
	// from the Extractor engaging the pair to the Aligner start).
	readingByID map[uint32]int64

	// onDispatch, when set, observes each pair handoff (tracing).
	onDispatch func(id uint32, reading int64, unsupported bool, aligner int)

	// Stats are monotone over the machine's lifetime (they survive Reset and
	// Configure), so the perf layer can window them with snapshot deltas.
	Stats ExtractorStats
}

// ExtractorStats attributes the Extractor's cycles: streaming beats in,
// stalled on the DMA, stalled on busy Aligners, or burning the fixed
// dispatch overhead.
type ExtractorStats struct {
	StreamCycles       int64 // cycles a beat was consumed from the input FIFO
	WaitDataCycles     int64 // cycles stalled mid-pair on an empty input FIFO
	WaitAlignerCycles  int64 // cycles with pairs left but no idle Aligner
	DispatchWaitCycles int64 // cycles spent in the per-pair dispatch overhead
	PairsDispatched    int64
	Unsupported        int64 // pairs dispatched with the unsupported flag
	SDCInput           int64 // pairs whose ingest CRC witness mismatched
}

// NewExtractor wires the extractor to the input FIFO and the Aligners.
func NewExtractor(cfg Config, inFIFO *sim.FIFO[[mem.BeatBytes]byte], aligners []*AlignerHW) *Extractor {
	return &Extractor{cfg: cfg, inFIFO: inFIFO, aligners: aligners, readingByID: map[uint32]int64{}}
}

// Configure latches the job parameters (MAX_READ_LEN etc.) at job start.
func (e *Extractor) Configure(maxReadLen, numPairs int, btEnabled bool) {
	e.maxReadLen = maxReadLen
	e.numPairs = numPairs
	e.btEnabled = btEnabled
	e.pairsDispatched = 0
	e.loading = false
	// clear keeps the map's buckets, so repeat jobs insert without growing.
	clear(e.readingByID)
}

// Reset aborts any in-flight pair load and clears all job progress; the
// machine's scrub path uses it so a fresh Configure starts from nothing.
func (e *Extractor) Reset() {
	e.maxReadLen = 0
	e.numPairs = 0
	e.btEnabled = false
	e.pairsDispatched = 0
	e.loading = false
	e.target = nil
	e.beatIdx = 0
	e.pairBeats = 0
	e.dispatchWait = 0
	e.rawA = e.rawA[:0]
	e.rawB = e.rawB[:0]
	e.unsupported = false
	e.crc = 0
	e.expectWitness = 0
	clear(e.readingByID)
}

// Done reports whether every pair has been dispatched to an Aligner.
func (e *Extractor) Done() bool { return e.pairsDispatched >= e.numPairs && !e.loading }

// ReadingCycles returns the recorded reading time for an alignment ID.
func (e *Extractor) ReadingCycles(id uint32) int64 { return e.readingByID[id] }

// Tick advances the extractor one cycle.
func (e *Extractor) Tick(cycle int64) {
	if !e.loading {
		if e.pairsDispatched >= e.numPairs {
			return
		}
		for _, a := range e.aligners {
			if a.Idle() {
				e.beginPair(a, cycle)
				break
			}
		}
		if !e.loading {
			e.Stats.WaitAlignerCycles++
			return
		}
	}
	if e.beatIdx < e.pairBeats {
		beat, ok := e.inFIFO.Pop()
		if !ok {
			e.Stats.WaitDataCycles++
			return // wait for the DMA
		}
		e.Stats.StreamCycles++
		e.consumeBeat(beat)
		beatIdx := e.beatIdx + 1
		e.beatIdx = beatIdx
		if beatIdx < e.pairBeats {
			return
		}
		e.dispatchWait = e.cfg.Timing.DispatchOverhead
		return
	}
	if e.dispatchWait > 0 {
		e.Stats.DispatchWaitCycles++
		wait := e.dispatchWait - 1
		e.dispatchWait = wait
		if wait == 0 {
			e.dispatch(cycle)
		}
	}
}

func (e *Extractor) beginPair(a *AlignerHW, cycle int64) {
	e.loading = true
	e.target = a
	e.target.BeginLoad()
	e.beatIdx = 0
	e.pairBeats = seqio.PairSections(e.maxReadLen)
	e.rawA = e.rawA[:0]
	e.rawB = e.rawB[:0]
	e.unsupported = false
	e.crc = 0
	e.expectWitness = 0
	e.pairStartCycle = cycle
}

func (e *Extractor) consumeBeat(beat [mem.BeatBytes]byte) {
	seqBeats := e.maxReadLen / seqio.SectionBytes
	e.crcBeat = beat
	switch {
	case e.beatIdx == 0:
		e.id = binary.LittleEndian.Uint32(beat[0:4])
		e.lenA = int(binary.LittleEndian.Uint32(beat[4:8]))
		e.lenB = int(binary.LittleEndian.Uint32(beat[8:12]))
		// Over-length reads are unsupported (Section 4.2). This also
		// neutralizes broken headers: a garbage length can never make the
		// Extractor read beyond the pair's fixed section count, so the
		// accelerator cannot hang on malformed data.
		if e.lenA > e.maxReadLen || e.lenB > e.maxReadLen {
			e.unsupported = true
		}
		// The ingest CRC (Section 4.2 extended by the integrity layer)
		// accumulates over the pair block with the witness field zeroed —
		// the same stream PairWitness checksums at build time.
		e.expectWitness = binary.LittleEndian.Uint32(beat[12:16])
		e.crcBeat[12], e.crcBeat[13], e.crcBeat[14], e.crcBeat[15] = 0, 0, 0, 0
		e.crc = integrity.CRC(e.crcBeat[:])
	case e.beatIdx <= seqBeats:
		e.rawA = append(e.rawA, beat[:]...)
		e.crc = integrity.CRCUpdate(e.crc, e.crcBeat[:])
	default:
		e.rawB = append(e.rawB, beat[:]...)
		e.crc = integrity.CRCUpdate(e.crc, e.crcBeat[:])
	}
}

// dispatch finalizes decode and starts the target Aligner.
func (e *Extractor) dispatch(cycle int64) {
	// Ingest integrity witness: a nonzero header witness that disagrees
	// with the accumulated CRC means the pair block was corrupted between
	// job build and the Input_Seq RAMs (a delivered-beat bit flip, or a
	// flip at rest in main memory). The pair is refused — Success=0, like
	// any unsupported read — and the trip is latched for RegSDCInput so
	// the driver can discard the whole attempt.
	if e.expectWitness != 0 && e.crc != e.expectWitness {
		e.unsupported = true
		e.Stats.SDCInput++
	}
	var seqA, seqB *SeqRAM
	if !e.unsupported {
		a := e.rawA[:e.lenA]
		b := e.rawB[:e.lenB]
		// 'N' (unknown) bases make the read unsupported.
		if seqio.ValidateSequence(a) != nil || seqio.ValidateSequence(b) != nil {
			e.unsupported = true
		} else {
			// Load into the target Aligner's retained RAM images so the
			// steady state of a job stream allocates nothing per pair.
			err := LoadSeqRAMInto(&e.target.seqABuf, e.id, a)
			if err == nil {
				err = LoadSeqRAMInto(&e.target.seqBBuf, e.id, b)
			}
			if err != nil {
				e.unsupported = true
			} else {
				seqA, seqB = &e.target.seqABuf, &e.target.seqBBuf
			}
		}
	}
	e.readingByID[e.id] = cycle - e.pairStartCycle //vet:allow hotalloc bounded per-job bookkeeping; bucket capacity reused via clear()
	if e.onDispatch != nil {
		e.onDispatch(e.id, cycle-e.pairStartCycle, e.unsupported, e.target.idx)
	}
	e.target.Start(e.id, seqA, seqB, e.unsupported, e.btEnabled, cycle)
	e.loading = false
	e.target = nil
	e.pairsDispatched++
	e.Stats.PairsDispatched++
	if e.unsupported {
		e.Stats.Unsupported++
	}
}
