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
		stride:  d.blockStride(),
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
// over the origin tags collecting the X/I/D differences, then a forward
// traversal of the two sequences re-inserting the matches ("the CPU
// traverses the two sequences and inserts all the necessary matches between
// the differences", Section 4.5).
func (d *Decoder) replay(a, b []byte, s stream, st *Stats) (align.CIGAR, error) {
	n, m := len(a), len(b)
	finalScore := int(s.rec.Score)
	idx := d.newOriginIndex(n, m, finalScore, st)

	pen := d.cfg.Penalties
	x, oe, e := pen.Mismatch, pen.GapOpen+pen.GapExtend, pen.GapExtend

	// Backward walk. Each recorded op also notes whether it was emitted
	// from an M~ cell: in forward order those are exactly the positions
	// where the hardware ran an (always maximal) extension, i.e. the only
	// places matches may be re-inserted. Inserting matches inside a gap run
	// would split it and inflate the affine score.
	type walkOp struct {
		op           align.Op
		matchesAfter bool // forward direction: extension follows this op
	}
	var rev []walkOp
	score := finalScore
	k := int(s.rec.K)
	comp := wfa.CompM
	for score > 0 {
		st.WalkSteps++
		org, err := idx.originAt(s.payload, score, k, st)
		if err != nil {
			return nil, err
		}
		mTag, iTag, dTag := wfa.UnpackOrigin(org)
		switch comp {
		case wfa.CompM:
			switch mTag {
			case wfa.MTagSub:
				rev = append(rev, walkOp{align.OpMismatch, true})
				score -= x
			case wfa.MTagIOpen:
				rev = append(rev, walkOp{align.OpInsert, true})
				k--
				score -= oe
			case wfa.MTagIExt:
				rev = append(rev, walkOp{align.OpInsert, true})
				k--
				score -= e
				comp = wfa.CompI
			case wfa.MTagDOpen:
				rev = append(rev, walkOp{align.OpDelete, true})
				k++
				score -= oe
			case wfa.MTagDExt:
				rev = append(rev, walkOp{align.OpDelete, true})
				k++
				score -= e
				comp = wfa.CompD
			default:
				return nil, fmt.Errorf("bt: invalid M~ origin %d at (s=%d,k=%d)", mTag, score, k)
			}
		case wfa.CompI:
			rev = append(rev, walkOp{align.OpInsert, false})
			k--
			if iTag == wfa.GTagOpen {
				score -= oe
				comp = wfa.CompM
			} else {
				score -= e
			}
		case wfa.CompD:
			rev = append(rev, walkOp{align.OpDelete, false})
			k++
			if dTag == wfa.GTagOpen {
				score -= oe
				comp = wfa.CompM
			} else {
				score -= e
			}
		}
		if score < 0 {
			return nil, fmt.Errorf("bt: backtrace walked below score 0 (k=%d)", k)
		}
	}
	if k != 0 || comp != wfa.CompM {
		return nil, fmt.Errorf("bt: backtrace ended at k=%d comp=%v, want k=0 M~", k, comp)
	}

	// Forward pass: replay the differences in order, inserting the matches
	// the hardware's maximal extensions imply — at the start (the extension
	// of M~(0,0)) and after every op emitted from an M~ cell.
	cigar := make(align.CIGAR, 0, len(rev)+m)
	i, j := 0, 0
	emitMatches := func() {
		for i < n && j < m && a[i] == b[j] {
			cigar = append(cigar, align.OpMatch)
			i++
			j++
			st.MatchesInserted++
		}
	}
	emitMatches()
	for idxOp := len(rev) - 1; idxOp >= 0; idxOp-- {
		w := rev[idxOp]
		switch w.op {
		case align.OpMismatch:
			if i >= n || j >= m || a[i] == b[j] {
				return nil, fmt.Errorf("bt: mismatch op at (%d,%d) where bases agree or overrun", i, j)
			}
			i++
			j++
		case align.OpInsert:
			if j >= m {
				return nil, fmt.Errorf("bt: insertion overruns sequence b at %d", j)
			}
			j++
		case align.OpDelete:
			if i >= n {
				return nil, fmt.Errorf("bt: deletion overruns sequence a at %d", i)
			}
			i++
		}
		cigar = append(cigar, w.op)
		if w.matchesAfter {
			emitMatches()
		}
	}
	if i != n || j != m {
		return nil, fmt.Errorf("bt: forward pass consumed (%d,%d) of (%d,%d)", i, j, n, m)
	}
	return cigar, nil
}
