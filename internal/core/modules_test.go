package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Direct unit tests of the Collector and Extractor modules, independent of
// the full Machine.

func collectorFixture(cfg Config, bt bool, numPairs int) (*Collector, *sim.FIFO[[mem.BeatBytes]byte], *AlignerHW) {
	fifo := sim.NewFIFO[[mem.BeatBytes]byte](cfg.OutputFIFODepth)
	al := NewAlignerHW(cfg, 0)
	col := NewCollector(cfg, fifo, []*AlignerHW{al})
	col.Configure(numPairs, bt, nil)
	return col, fifo, al
}

func drainFIFO(col *Collector, fifo *sim.FIFO[[mem.BeatBytes]byte], maxCycles int) [][mem.BeatBytes]byte {
	var out [][mem.BeatBytes]byte
	for cycle := 0; cycle < maxCycles; cycle++ {
		col.Tick()
		fifo.Tick()
		for {
			beat, ok := fifo.Pop()
			if !ok {
				break
			}
			out = append(out, beat)
		}
	}
	return out
}

func TestCollectorNBTMergesFourRecords(t *testing.T) {
	cfg := ChipConfig()
	col, fifo, al := collectorFixture(cfg, false, 5)
	for i := 0; i < 5; i++ {
		al.outbox.Push(obEntry{
			kind: obResult,
			id:   uint32(i + 1),
			res:  ScoreRecord{Success: true, Score: uint16(10 * (i + 1))},
		})
	}
	beats := drainFIFO(col, fifo, 50)
	// 5 records -> one full transaction of 4 + one flushed partial.
	if len(beats) != 2 {
		t.Fatalf("got %d transactions, want 2", len(beats))
	}
	for i := 0; i < 4; i++ {
		rec, err := UnpackNBTRecord(beats[0][i*NBTRecordBytes:])
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Success || rec.Score != uint16(10*(i+1)) || rec.ID != uint16(i+1) {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
	rec, _ := UnpackNBTRecord(beats[1][:])
	if rec.Score != 50 || rec.ID != 5 {
		t.Fatalf("flushed record: %+v", rec)
	}
	if !col.Done() {
		t.Fatal("collector not done after flush")
	}
}

func TestCollectorBTChunksOneBlockPerFourTransactions(t *testing.T) {
	cfg := ChipConfig() // PS=64 -> 40-byte blocks -> 4 transactions each
	col, fifo, al := collectorFixture(cfg, true, 1)
	block := make([]byte, cfg.BTBlockBytes())
	for i := range block {
		block[i] = byte(i + 1)
	}
	al.outbox.Push(obEntry{kind: obBlock, id: 9, block: block})
	al.outbox.Push(obEntry{kind: obResult, id: 9, res: ScoreRecord{Success: true, Score: 4}})
	beats := drainFIFO(col, fifo, 50)
	if len(beats) != 5 {
		t.Fatalf("got %d transactions, want 4 payload + 1 score", len(beats))
	}
	var payload []byte
	for i := 0; i < 4; i++ {
		tr, err := UnpackBTTransaction(beats[i][:])
		if err != nil {
			t.Fatal(err)
		}
		if tr.ID != 9 || tr.Last || tr.Counter != uint32(i) {
			t.Fatalf("transaction %d: %+v", i, tr)
		}
		payload = append(payload, tr.Payload[:]...)
	}
	if string(payload) != string(block) {
		t.Fatalf("payload reassembly mismatch")
	}
	last, _ := UnpackBTTransaction(beats[4][:])
	if !last.Last || last.Counter != 4 || UnpackScoreRecord(last.Payload).Score != 4 {
		t.Fatalf("score transaction: %+v", last)
	}
}

func TestCollectorRespectsFIFOBackpressure(t *testing.T) {
	cfg := ChipConfig()
	cfg.OutputFIFODepth = cfg.Timing.Mem.BurstBeats // minimum legal
	fifo := sim.NewFIFO[[mem.BeatBytes]byte](2)     // tiny on purpose
	al := NewAlignerHW(cfg, 0)
	col := NewCollector(cfg, fifo, []*AlignerHW{al})
	col.Configure(1, true, nil)
	block := make([]byte, cfg.BTBlockBytes())
	al.outbox.Push(obEntry{kind: obBlock, id: 1, block: block})
	al.outbox.Push(obEntry{kind: obResult, id: 1, res: ScoreRecord{Success: true}})
	// Never pop: the collector must stall, not panic or drop.
	for cycle := 0; cycle < 20; cycle++ {
		col.Tick()
		fifo.Tick()
	}
	if fifo.Occupancy() != 2 {
		t.Fatalf("occupancy %d want 2 (full)", fifo.Occupancy())
	}
	if col.Transactions != 2 {
		t.Fatalf("collector pushed %d transactions into a depth-2 FIFO", col.Transactions)
	}
	// Drain everything (the two stalled beats plus the remaining three).
	beats := drainFIFOWithPops(col, fifo, 50)
	if len(beats) != 5 { // 4 payload chunks + score record in total
		t.Fatalf("drained %d transactions, want 5", len(beats))
	}
	if col.Transactions != 5 {
		t.Fatalf("collector pushed %d transactions in total, want 5", col.Transactions)
	}
}

func drainFIFOWithPops(col *Collector, fifo *sim.FIFO[[mem.BeatBytes]byte], maxCycles int) [][mem.BeatBytes]byte {
	var out [][mem.BeatBytes]byte
	for cycle := 0; cycle < maxCycles; cycle++ {
		col.Tick()
		fifo.Tick()
		if beat, ok := fifo.Pop(); ok {
			out = append(out, beat)
		}
	}
	return out
}

func TestExtractorStreamsPairIntoAligner(t *testing.T) {
	cfg := ChipConfig()
	cfg.MaxReadLenCap = 64
	cfg.KMax = 32
	fifo := sim.NewFIFO[[mem.BeatBytes]byte](cfg.InputFIFODepth)
	al := NewAlignerHW(cfg, 0)
	ext := NewExtractor(cfg, fifo, []*AlignerHW{al})
	ext.Configure(32, 1, false)

	// Hand-build the pair image: header + 2 sections per sequence.
	img := buildPairImage(t, 7, []byte("ACGTACGT"), []byte("ACGAACGT"), 32)
	cycle := int64(0)
	feed := 0
	for !ext.Done() && cycle < 1000 {
		if feed < len(img) {
			var beat [mem.BeatBytes]byte
			copy(beat[:], img[feed:feed+mem.BeatBytes])
			if fifo.Push(beat) {
				feed += mem.BeatBytes
			}
		}
		ext.Tick(cycle)
		fifo.Tick()
		cycle++
	}
	if !ext.Done() {
		t.Fatal("extractor did not finish")
	}
	if al.state != alignerRunning {
		t.Fatalf("aligner state %v, want running", al.state)
	}
	if al.seqA.Length != 8 || al.seqB.Length != 8 || al.seqA.ID != 7 {
		t.Fatalf("loaded SeqRAMs wrong: %+v %+v", al.seqA, al.seqB)
	}
	if ext.ReadingCycles(7) <= int64(cfg.Timing.DispatchOverhead) {
		t.Fatalf("reading cycles %d implausibly low", ext.ReadingCycles(7))
	}
}

func buildPairImage(t *testing.T, id uint32, a, b []byte, maxReadLen int) []byte {
	t.Helper()
	img := make([]byte, (1+2*(maxReadLen/16))*mem.BeatBytes)
	img[0] = byte(id)
	img[4] = byte(len(a))
	img[8] = byte(len(b))
	copy(img[16:], a)
	copy(img[16+maxReadLen:], b)
	return img
}

func TestExtractorFlagsOversizedHeader(t *testing.T) {
	cfg := ChipConfig()
	cfg.MaxReadLenCap = 64
	cfg.KMax = 32
	fifo := sim.NewFIFO[[mem.BeatBytes]byte](cfg.InputFIFODepth)
	al := NewAlignerHW(cfg, 0)
	ext := NewExtractor(cfg, fifo, []*AlignerHW{al})
	ext.Configure(32, 1, false)

	img := buildPairImage(t, 3, []byte("ACGT"), []byte("ACGT"), 32)
	img[4] = 200 // claim length 200 > MAX_READ_LEN 32
	cycle := int64(0)
	feed := 0
	for !ext.Done() && cycle < 1000 {
		if feed < len(img) {
			var beat [mem.BeatBytes]byte
			copy(beat[:], img[feed:feed+mem.BeatBytes])
			if fifo.Push(beat) {
				feed += mem.BeatBytes
			}
		}
		ext.Tick(cycle)
		fifo.Tick()
		cycle++
	}
	if !al.unsupported {
		t.Fatal("oversized header not flagged as unsupported")
	}
}
