package bt

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/wfa"
)

// originAt fetches the packed origin of cell (s, k) from p through the
// layout the stream was filled with.
func (d *Decoder) originAt(p payload, s, k int, st *Stats) (uint8, error) {
	block, off, sh, err := d.layout.Locate(s, k)
	if err != nil {
		return 0, err
	}
	i, n := block*d.blockBytes+off, p.len()
	if i >= n {
		return 0, fmt.Errorf("bt: origin offset %d beyond stream of %d bytes", i, n)
	}
	v := uint32(p.at(i)) >> sh
	if i+1 < n {
		v |= uint32(p.at(i+1)) << (8 - sh)
	}
	st.OriginBytesTouched += 2
	return uint8(v & 0x1F), nil
}

// replay reconstructs the CIGAR of one successful alignment: a backward walk
// that fetches one origin per step from the stream and decodes it with
// wfa.BackStep, then wfa.ForwardPass, which re-inserts the matches ("the CPU
// traverses the two sequences and inserts all the necessary matches between
// the differences", Section 4.5).
func (d *Decoder) replay(a, b []byte, p payload, rec core.ScoreRecord, st *Stats) (align.CIGAR, error) {
	score, k, comp := int(rec.Score), int(rec.K), wfa.CompM
	st.RangeSteps += int64(score)
	rev := d.ops[:0]
	for score > 0 {
		st.WalkSteps++
		org, err := d.originAt(p, score, k, st)
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
	d.ops = rev
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
