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
// The decoder re-derives the layout of the origin stream purely from the
// penalties, the sequence lengths, k_max and the parallel-section count,
// using the same data-independent RangeTracker the hardware iterates with.
package bt

import (
	"fmt"
	"sort"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/seqio"
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
// configuration.
type Decoder struct {
	cfg core.Config
}

// NewDecoder returns a decoder for the accelerator configuration.
func NewDecoder(cfg core.Config) *Decoder { return &Decoder{cfg: cfg} }

// payloadReader abstracts where the origin stream lives: a separated flat
// buffer (multi-Aligner) or a gap-aware view of the raw transactions
// (single-Aligner).
type payloadReader interface {
	ByteAt(i int) byte
	Len() int
}

type flatPayload []byte

func (p flatPayload) ByteAt(i int) byte { return p[i] }
func (p flatPayload) Len() int          { return len(p) }

// gappedPayload reads payload byte i directly out of the raw transaction
// region without copying: transaction i/10, offset i%10.
type gappedPayload struct {
	raw     []byte // the raw region, 16-byte transactions
	firstTx int    // first transaction belonging to this alignment
	numTx   int    // payload-carrying transactions (excludes the score record)
}

func (p gappedPayload) ByteAt(i int) byte {
	tx := i / core.BTPayloadBytes
	off := i % core.BTPayloadBytes
	return p.raw[(p.firstTx+tx)*mem.BeatBytes+off]
}

func (p gappedPayload) Len() int { return p.numTx * core.BTPayloadBytes }

// stream is one alignment's reassembled BT output.
type stream struct {
	id      uint32
	payload payloadReader
	rec     core.ScoreRecord
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
	var streams []stream
	var err error
	if separate {
		streams, err = d.separate(raw, numTransactions, &st)
	} else {
		streams, err = d.jumpBoundaries(raw, numTransactions, pairs, &st)
	}
	if err != nil {
		return nil, st, err
	}

	out := make([]Alignment, 0, len(streams))
	for _, s := range streams {
		pair, ok := pairs[s.id]
		if !ok {
			return nil, st, fmt.Errorf("bt: result for unknown alignment ID %d", s.id)
		}
		if !s.rec.Success {
			out = append(out, Alignment{ID: s.id, Result: align.Result{Success: false}})
			continue
		}
		cigar, err := d.replay(pair.A, pair.B, s, &st)
		if err != nil {
			return nil, st, fmt.Errorf("bt: alignment %d: %w", s.id, err)
		}
		out = append(out, Alignment{ID: s.id, Result: align.Result{
			Score:   int(s.rec.Score),
			CIGAR:   cigar,
			Success: true,
		}})
	}
	return out, st, nil
}

// separate implements the multi-Aligner data-separation step: every
// transaction is read, grouped by alignment ID, ordered by counter, and its
// payload copied into a contiguous per-alignment buffer.
func (d *Decoder) separate(raw []byte, numTransactions int, st *Stats) ([]stream, error) {
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
	var streams []stream
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
		streams = append(streams, stream{
			id:      id,
			payload: flatPayload(buf),
			rec:     core.UnpackScoreRecord(lastTx.Payload),
		})
	}
	return streams, nil
}

// jumpBoundaries implements the single-Aligner method without touching the
// bulk of the stream: because the origin-stream layout is a deterministic
// function of (sequence lengths, penalties, k_max, parallel sections, final
// score), the CPU reads only the score records. Starting from the last
// transaction of the region (always a score record), it computes that
// alignment's exact stream size from its score, jumps to the stream's start,
// and finds the previous alignment's score record immediately before it.
// The whole boundary identification is O(pairs) memory touches, which is
// what makes the no-separation method dramatically faster than separation
// for long reads (Figure 11).
func (d *Decoder) jumpBoundaries(raw []byte, numTransactions int, pairs map[uint32]seqio.Pair, st *Stats) ([]stream, error) {
	var streams []stream
	idx := numTransactions - 1
	for idx >= 0 {
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
		numTx := d.cfg.BTStreamTransactions(len(pair.A), len(pair.B), int(rec.Score))
		start := idx - numTx
		if start < 0 {
			return nil, fmt.Errorf("bt: alignment %d claims %d transactions but only %d precede it", tr.ID, numTx, idx)
		}
		streams = append(streams, stream{
			id:      tr.ID,
			payload: gappedPayload{raw: raw, firstTx: start, numTx: numTx},
			rec:     rec,
		})
		idx = start - 1
	}
	// Restore input order (we walked backward).
	for i, j := 0, len(streams)-1; i < j; i, j = i+1, j-1 {
		streams[i], streams[j] = streams[j], streams[i]
	}
	return streams, nil
}
