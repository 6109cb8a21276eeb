package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/wfa"
)

// This file implements the exact output formats of Section 4.4 (Collector
// module). Everything the accelerator writes to main memory goes through
// these encoders, and the CPU-side code (internal/bt) decodes with the
// matching functions, so the hardware/software contract is tested
// end-to-end.

// NBTRecord is the backtrace-disabled result: "four bytes. These four bytes
// include the Success flag in one bit, the alignment score in 15 bits, and
// the alignment ID in two bytes."
type NBTRecord struct {
	Success bool
	Score   uint16 // 15 bits
	ID      uint16 // the alignment ID truncated to 16 bits
}

// NBTRecordBytes is the packed size of one NBT record.
const NBTRecordBytes = 4

// NBTPerTransaction is how many NBT records the Collector merges into one
// 16-byte memory transaction.
const NBTPerTransaction = mem.BeatBytes / NBTRecordBytes

// Pack serializes the record.
func (r NBTRecord) Pack() [NBTRecordBytes]byte {
	var out [NBTRecordBytes]byte
	word := r.Score & 0x7FFF
	if r.Success {
		word |= 0x8000
	}
	binary.LittleEndian.PutUint16(out[0:2], word)
	binary.LittleEndian.PutUint16(out[2:4], r.ID)
	return out
}

// UnpackNBTRecord parses one 4-byte NBT record.
func UnpackNBTRecord(b []byte) (NBTRecord, error) {
	if len(b) < NBTRecordBytes {
		return NBTRecord{}, fmt.Errorf("core: NBT record needs %d bytes, got %d", NBTRecordBytes, len(b))
	}
	word := binary.LittleEndian.Uint16(b[0:2])
	return NBTRecord{
		Success: word&0x8000 != 0,
		Score:   word & 0x7FFF,
		ID:      binary.LittleEndian.Uint16(b[2:4]),
	}, nil
}

// BT transaction layout: "in each transaction, we combine 10 bytes of the
// backtrace data with six bytes of information ... The attached information
// includes a counter of the block (three bytes), the Last flag (one bit) and
// the alignment ID (23 bits)."
const (
	// BTPayloadBytes is the backtrace payload carried per 16-byte
	// transaction.
	BTPayloadBytes = 10
	// btCounterOff/btInfoOff locate the info fields inside a transaction.
	btCounterOff = 10
	btInfoOff    = 13
	// BTIDMask is the 23-bit alignment ID field.
	BTIDMask uint32 = 1<<23 - 1
)

// BTTransaction is one decoded 16-byte backtrace memory transaction.
type BTTransaction struct {
	Payload [BTPayloadBytes]byte
	Counter uint32 // 24-bit per-alignment sequence number
	Last    bool   // set on the final (score-record) transaction
	ID      uint32 // 23-bit alignment ID
}

// Pack serializes the transaction into a 16-byte beat.
func (t BTTransaction) Pack() [mem.BeatBytes]byte {
	var out [mem.BeatBytes]byte
	copy(out[:BTPayloadBytes], t.Payload[:])
	out[btCounterOff] = byte(t.Counter)
	out[btCounterOff+1] = byte(t.Counter >> 8)
	out[btCounterOff+2] = byte(t.Counter >> 16)
	info := t.ID & BTIDMask
	if t.Last {
		info |= 1 << 23
	}
	out[btInfoOff] = byte(info)
	out[btInfoOff+1] = byte(info >> 8)
	out[btInfoOff+2] = byte(info >> 16)
	return out
}

// UnpackBTTransaction parses a 16-byte beat.
func UnpackBTTransaction(b []byte) (BTTransaction, error) {
	if len(b) < mem.BeatBytes {
		return BTTransaction{}, fmt.Errorf("core: BT transaction needs %d bytes, got %d", mem.BeatBytes, len(b))
	}
	var t BTTransaction
	copy(t.Payload[:], b[:BTPayloadBytes])
	t.Counter = uint32(b[btCounterOff]) | uint32(b[btCounterOff+1])<<8 | uint32(b[btCounterOff+2])<<16
	info := uint32(b[btInfoOff]) | uint32(b[btInfoOff+1])<<8 | uint32(b[btInfoOff+2])<<16
	t.ID = info & BTIDMask
	t.Last = info&(1<<23) != 0
	return t, nil
}

// BTBlockTransactions is how many payload transactions one origin block
// occupies: the Collector zero-pads every block to whole BTPayloadBytes
// chunks, one chunk per transaction.
func (c Config) BTBlockTransactions() int {
	return (c.BTBlockBytes() + BTPayloadBytes - 1) / BTPayloadBytes
}

// BTLayout is the layout of one alignment's backtrace stream, its score
// record not included. The layout depends only on the configuration, the
// read lengths and the score the record reports: every score 1..score whose
// M~ range is non-empty emits one origin block per parallel-section batch of
// that range. The CPU sizes the output region, finds stream boundaries and
// locates every origin with it, without reading the stream (Section 4.5).
// A caller owns one BTLayout and refills it per stream, so the tracker and
// the per-score table keep their capacity.
type BTLayout struct {
	tracker wfa.RangeTracker
	bank    Banking
	// bias[s] + RowOf(k)/P is the block holding cell (s, k): score s's
	// first block minus the batch index of its first batch row.
	bias []int
}

// Fill replays the range recurrence of an n x m pair under c up to score
// and returns the stream's payload-transaction count.
func (l *BTLayout) Fill(c Config, n, m, score int) int {
	l.tracker.Reset(c.Penalties, n, m, c.KMax)
	l.bank = Banking{P: c.ParallelSections, KMax: c.KMax}
	l.bias = append(l.bias[:0], 0) // score 0 emits no blocks
	blocks := 0
	for s := 1; s <= score; s++ {
		_, _, mR := l.tracker.Extend(s)
		l.bias = append(l.bias, blocks-l.bank.RowOf(mR.Lo)/l.bank.P)
		blocks += l.bank.NumBatches(mR.Lo, mR.Hi)
	}
	return blocks * c.BTBlockTransactions()
}

// Locate finds the 5-bit origin of cell (s, k): it starts shift bits into
// byte off of origin block block. It fails when k lies outside M~(s) or s
// outside the filled scores.
func (l *BTLayout) Locate(s, k int) (block, off, shift int, err error) {
	if s <= 0 || s >= len(l.bias) {
		return 0, 0, 0, fmt.Errorf("core: no origin block for score %d", s)
	}
	if mR := l.tracker.MRange(s); k < mR.Lo || k > mR.Hi {
		return 0, 0, 0, fmt.Errorf("core: diagonal %d outside M~ range [%d,%d] at score %d", k, mR.Lo, mR.Hi, s)
	}
	r := l.bank.RowOf(k)
	bit := 5 * (r % l.bank.P)
	return l.bias[s] + r/l.bank.P, bit / 8, bit % 8, nil
}

// ScoreRecord is the final datum of a backtrace-enabled alignment: "These
// five bytes include the Success flag in one byte, the k that the alignment
// reaches in two bytes, and the alignment score in two bytes."
type ScoreRecord struct {
	Success bool
	K       int16
	Score   uint16
}

// ScoreRecordBytes is the useful payload size of a score record.
const ScoreRecordBytes = 5

// PackPayload serializes the record into a BT transaction payload.
func (r ScoreRecord) PackPayload() [BTPayloadBytes]byte {
	var out [BTPayloadBytes]byte
	if r.Success {
		out[0] = 1
	}
	binary.LittleEndian.PutUint16(out[1:3], uint16(r.K))
	binary.LittleEndian.PutUint16(out[3:5], r.Score)
	return out
}

// UnpackScoreRecord parses a score-record payload.
func UnpackScoreRecord(p [BTPayloadBytes]byte) ScoreRecord {
	return ScoreRecord{
		Success: p[0] != 0,
		K:       int16(binary.LittleEndian.Uint16(p[1:3])),
		Score:   binary.LittleEndian.Uint16(p[3:5]),
	}
}

// PackOriginBlock packs the per-cell 5-bit origins of one parallel-section
// batch into the backtrace block dst (Section 4.3.3: 5 x PS bits; 320 bits =
// 40 bytes in the chip). dst is caller-owned and must be exactly
// (5*len(origins)+7)/8 bytes long; its previous contents are overwritten.
// Cell c occupies bits [5c, 5c+5), LSB-first within the block.
func PackOriginBlock(dst []byte, origins []uint8) {
	clear(dst)
	for c, o := range origins {
		bit := 5 * c
		v := uint32(o&0x1F) << (bit % 8)
		idx := bit / 8
		dst[idx] |= byte(v)
		if v>>8 != 0 {
			dst[idx+1] |= byte(v >> 8)
		}
	}
}

// OriginAt extracts the 5-bit origin of cell c from a packed block stream.
func OriginAt(stream []byte, cell int) uint8 {
	bit := 5 * cell
	idx := bit / 8
	sh := bit % 8
	v := uint32(stream[idx]) >> sh
	if idx+1 < len(stream) {
		v |= uint32(stream[idx+1]) << (8 - sh)
	}
	return uint8(v & 0x1F)
}
