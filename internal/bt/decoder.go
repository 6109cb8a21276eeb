// Package bt is the CPU side of the co-design (Section 4.5): it decodes the
// backtrace data the WFAsic accelerator streamed to main memory and
// reconstructs full CIGARs.
//
// Two methods are implemented, matching the paper:
//
//   - the multi-Aligner method first *separates* the interleaved
//     transactions of different alignments into per-alignment contiguous
//     buffers (a memory-bound copy), then backtraces each;
//   - the single-Aligner method skips separation — the data of each
//     alignment is already consecutive — and the backtrace "correctly
//     handles the gaps between backtrace data" (the 6 info bytes inside
//     every 16-byte transaction) by gap-aware indexing.
//
// The decoder re-derives the layout of each origin stream purely from the
// penalties, the sequence lengths, k_max, the parallel-section count and the
// score record, with one core.BTLayout replay of the same data-independent
// range recurrence the hardware iterates with. That one replay sizes the
// stream, which locates its boundary, and then locates every origin the
// backward walk reads. Both methods read a stream through one view, which
// differs only in the stride between 10-byte payload chunks.
package bt

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/seqio"
	"repro/internal/wfa"
)

// Alignment is one decoded result.
type Alignment struct {
	ID     uint32
	Result align.Result
}

// Stats counts the CPU work of decoding, consumed by the CPU cost model.
type Stats struct {
	TransactionsScanned int64 // transactions read during separation / boundary jumps
	SeparatedBytes      int64 // payload bytes copied by the separation step
	RangeSteps          int64 // lo/hi range-recurrence steps replayed (stream indexing)
	WalkSteps           int64 // backward origin-walk steps (one per X/I/D op)
	MatchesInserted     int64 // matches re-inserted by the forward pass
	OriginBytesTouched  int64 // origin-stream bytes addressed by the walk
}

// Decoder decodes BT regions produced by a machine with the given
// configuration. It owns the stream layout and the walk scratch and reuses
// them across streams and calls, so a Decoder is not safe for concurrent
// use.
type Decoder struct {
	cfg        core.Config
	blockBytes int // payload bytes per origin block, padding included
	layout     core.BTLayout
	ops        []wfa.BackOp
}

// NewDecoder returns a decoder for the accelerator configuration.
func NewDecoder(cfg core.Config) *Decoder {
	return &Decoder{cfg: cfg, blockBytes: cfg.BTBlockTransactions() * core.BTPayloadBytes}
}

// payload is one alignment's origin stream read in place: payload byte i
// lives in chunk i/BTPayloadBytes, which starts stride bytes after the
// previous one. A separated buffer has stride BTPayloadBytes; the raw
// region has stride mem.BeatBytes, skipping the six info bytes of every
// transaction ("correctly handles the gaps between backtrace data"). raw
// ends where the stream's last chunk does.
type payload struct {
	raw    []byte
	first  int // offset of the first chunk in raw
	stride int
}

func (p payload) len() int { return (len(p.raw) - p.first) / p.stride * core.BTPayloadBytes }

func (p payload) at(i int) byte {
	return p.raw[p.first+i/core.BTPayloadBytes*p.stride+i%core.BTPayloadBytes]
}

// DecodeRegion decodes a raw BT output region of numTransactions 16-byte
// transactions. pairs maps alignment IDs (masked to 23 bits) to the input
// sequences, which the CPU knows from its own parse of the input set.
// separate selects the multi-Aligner method (true) or the single-Aligner
// boundary-scan method (false). The single-Aligner method requires each
// alignment's transactions to be consecutive, which holds whenever the
// accelerator had one Aligner.
func (d *Decoder) DecodeRegion(raw []byte, numTransactions int, pairs map[uint32]seqio.Pair, separate bool) ([]Alignment, Stats, error) {
	if len(raw) < numTransactions*mem.BeatBytes {
		return nil, Stats{}, fmt.Errorf("bt: region %dB too small for %d transactions", len(raw), numTransactions)
	}
	var st Stats
	out := make([]Alignment, 0, len(pairs))
	var err error
	if separate {
		out, err = d.separate(raw, numTransactions, pairs, out, &st)
	} else {
		out, err = d.jumpBoundaries(raw, numTransactions, pairs, out, &st)
	}
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// decode reconstructs one alignment from its score record and its origin
// stream p. For a successful record d.layout must hold the stream's layout.
func (d *Decoder) decode(id uint32, pair seqio.Pair, p payload, rec core.ScoreRecord, st *Stats) (Alignment, error) {
	if !rec.Success {
		return Alignment{ID: id, Result: align.Result{Success: false}}, nil
	}
	cigar, err := d.replay(pair.A, pair.B, p, rec, st)
	if err != nil {
		return Alignment{}, fmt.Errorf("bt: alignment %d: %w", id, err)
	}
	return Alignment{ID: id, Result: align.Result{Score: int(rec.Score), CIGAR: cigar, Success: true}}, nil
}

// separate implements the multi-Aligner data-separation step: every
// transaction is read, grouped by alignment ID, ordered by counter, and its
// payload copied into a contiguous per-alignment buffer, which is then
// decoded with a layout replayed from its score record.
func (d *Decoder) separate(raw []byte, numTransactions int, pairs map[uint32]seqio.Pair, out []Alignment, st *Stats) ([]Alignment, error) {
	type txRef struct {
		counter uint32
		index   int
		last    bool
	}
	byID := map[uint32][]txRef{}
	order := []uint32{}
	for i := 0; i < numTransactions; i++ {
		tr, err := core.UnpackBTTransaction(raw[i*mem.BeatBytes:])
		if err != nil {
			return nil, err
		}
		st.TransactionsScanned++
		if _, seen := byID[tr.ID]; !seen {
			order = append(order, tr.ID)
		}
		byID[tr.ID] = append(byID[tr.ID], txRef{counter: tr.Counter, index: i, last: tr.Last})
	}
	for _, id := range order {
		refs := byID[id]
		sort.Slice(refs, func(a, b int) bool { return refs[a].counter < refs[b].counter })
		if !refs[len(refs)-1].last {
			return nil, fmt.Errorf("bt: alignment %d has no final (Last) transaction", id)
		}
		var buf []byte
		for _, ref := range refs[:len(refs)-1] {
			base := ref.index * mem.BeatBytes
			buf = append(buf, raw[base:base+core.BTPayloadBytes]...)
			st.SeparatedBytes += core.BTPayloadBytes
		}
		lastTx, err := core.UnpackBTTransaction(raw[refs[len(refs)-1].index*mem.BeatBytes:])
		if err != nil {
			return nil, err
		}
		pair, ok := pairs[id]
		if !ok {
			return nil, fmt.Errorf("bt: result for unknown alignment ID %d", id)
		}
		rec := core.UnpackScoreRecord(lastTx.Payload)
		if rec.Success {
			d.layout.Fill(d.cfg, len(pair.A), len(pair.B), int(rec.Score))
		}
		al, err := d.decode(id, pair, payload{raw: buf, stride: core.BTPayloadBytes}, rec, st)
		if err != nil {
			return nil, err
		}
		out = append(out, al)
	}
	return out, nil
}

// jumpBoundaries implements the single-Aligner method without touching the
// bulk of the stream: because the origin-stream layout is a deterministic
// function of (sequence lengths, penalties, k_max, parallel sections, final
// score), the CPU reads only the score records. Starting from the last
// transaction of the region (always a score record), it fills that
// alignment's layout from its score, decodes the stream in place with it,
// jumps to the stream's start, and finds the previous alignment's score
// record immediately before it. The whole boundary identification is
// O(pairs) memory touches, which is what makes the no-separation method
// dramatically faster than separation for long reads (Figure 11).
func (d *Decoder) jumpBoundaries(raw []byte, numTransactions int, pairs map[uint32]seqio.Pair, out []Alignment, st *Stats) ([]Alignment, error) {
	for idx := numTransactions - 1; idx >= 0; {
		tr, err := core.UnpackBTTransaction(raw[idx*mem.BeatBytes:])
		if err != nil {
			return nil, err
		}
		st.TransactionsScanned++
		if !tr.Last {
			return nil, fmt.Errorf("bt: transaction %d is not a score record (stream corrupt or multi-Aligner data without separation)", idx)
		}
		rec := core.UnpackScoreRecord(tr.Payload)
		pair, ok := pairs[tr.ID]
		if !ok {
			return nil, fmt.Errorf("bt: score record for unknown alignment ID %d", tr.ID)
		}
		// For a failed alignment the record carries the last score budget
		// processed, which sizes its stream the same way.
		numTx := d.layout.Fill(d.cfg, len(pair.A), len(pair.B), int(rec.Score))
		start := idx - numTx
		if start < 0 {
			return nil, fmt.Errorf("bt: alignment %d claims %d transactions but only %d precede it", tr.ID, numTx, idx)
		}
		p := payload{raw: raw[:idx*mem.BeatBytes], first: start * mem.BeatBytes, stride: mem.BeatBytes}
		al, err := d.decode(tr.ID, pair, p, rec, st)
		if err != nil {
			return nil, err
		}
		out = append(out, al)
		idx = start - 1
	}
	slices.Reverse(out) // restore input order: the region was walked backward
	return out, nil
}
