package bt

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/wfa"
)

// originIndex locates the 5-bit origin of any (score, diagonal) cell inside
// one alignment's payload stream. It is rebuilt per alignment from the
// data-independent RangeTracker — the CPU needs no side channel beyond the
// sequence lengths it already has.
type originIndex struct {
	cfg     core.Config
	tracker *wfa.RangeTracker
	stride  int   // payload bytes per block
	base    []int // per score: index of its first block (-1 when no blocks)
	kStart  []int // per score: diagonal of the first cell of its first block
	bank    core.Banking
}

func (d *Decoder) newOriginIndex(n, m, finalScore int, st *Stats) *originIndex {
	idx := &originIndex{
		cfg:     d.cfg,
		tracker: wfa.NewRangeTracker(d.cfg.Penalties, n, m, d.cfg.KMax),
		stride:  d.cfg.BTBlockTransactions() * core.BTPayloadBytes,
		bank:    core.Banking{P: d.cfg.ParallelSections, KMax: d.cfg.KMax},
	}
	idx.base = append(idx.base, -1) // score 0 emits no blocks
	idx.kStart = append(idx.kStart, 0)
	blocks := 0
	st.RangeSteps += int64(finalScore)
	for s := 1; s <= finalScore; s++ {
		_, _, mR := idx.tracker.Extend(s)
		if mR.Empty() {
			idx.base = append(idx.base, -1)
			idx.kStart = append(idx.kStart, 0)
			continue
		}
		idx.base = append(idx.base, blocks)
		idx.kStart = append(idx.kStart, idx.bank.BatchStart(mR.Lo))
		blocks += idx.bank.NumBatches(mR.Lo, mR.Hi)
	}
	return idx
}

// originAt fetches the packed origin of cell (s, k).
func (idx *originIndex) originAt(p payloadReader, s, k int, st *Stats) (uint8, error) {
	if s <= 0 || s >= len(idx.base) || idx.base[s] < 0 {
		return 0, fmt.Errorf("bt: no origin block for score %d", s)
	}
	mR := idx.tracker.MRange(s)
	if k < mR.Lo || k > mR.Hi {
		return 0, fmt.Errorf("bt: diagonal %d outside M~ range [%d,%d] at score %d", k, mR.Lo, mR.Hi, s)
	}
	P := idx.cfg.ParallelSections
	blockInScore := (idx.bank.RowOf(k) - idx.bank.RowOf(idx.kStart[s])) / P
	block := idx.base[s] + blockInScore
	cell := idx.bank.RowOf(k) % P

	bit := 5 * cell
	byteOff := block*idx.stride + bit/8
	sh := bit % 8
	if byteOff+1 >= p.Len() && byteOff >= p.Len() {
		return 0, fmt.Errorf("bt: origin offset %d beyond stream of %d bytes", byteOff, p.Len())
	}
	v := uint32(p.ByteAt(byteOff)) >> sh
	if byteOff+1 < p.Len() {
		v |= uint32(p.ByteAt(byteOff+1)) << (8 - sh)
	}
	st.OriginBytesTouched += 2
	return uint8(v & 0x1F), nil
}

// replay reconstructs the CIGAR of one successful alignment: a backward walk
// that fetches one origin per step from the stream and decodes it with
// wfa.BackStep, then wfa.ForwardPass, which re-inserts the matches ("the CPU
// traverses the two sequences and inserts all the necessary matches between
// the differences", Section 4.5).
func (d *Decoder) replay(a, b []byte, s stream, st *Stats) (align.CIGAR, error) {
	score, k, comp := int(s.rec.Score), int(s.rec.K), wfa.CompM
	idx := d.newOriginIndex(len(a), len(b), score, st)
	var rev []wfa.BackOp
	for score > 0 {
		st.WalkSteps++
		org, err := idx.originAt(s.payload, score, k, st)
		if err != nil {
			return nil, err
		}
		tag := wfa.OriginTag(org, comp)
		op, ds, dk, next, ok := wfa.BackStep(comp, tag, d.cfg.Penalties)
		if !ok {
			return nil, fmt.Errorf("bt: invalid %v~ origin %d at (s=%d,k=%d)", comp, tag, score, k)
		}
		rev = append(rev, op)
		score, k, comp = score-ds, k+dk, next
	}
	if score < 0 {
		return nil, fmt.Errorf("bt: backtrace walked below score 0 (k=%d)", k)
	}
	if k != 0 || comp != wfa.CompM {
		return nil, fmt.Errorf("bt: backtrace ended at k=%d comp=%v, want k=0 M~", k, comp)
	}
	cigar, err := wfa.ForwardPass(a, b, rev)
	if err != nil {
		return nil, fmt.Errorf("bt: %w", err)
	}
	st.MatchesInserted += int64(len(cigar) - len(rev))
	return cigar, nil
}
