// Package heuristic implements the approximate aligners the paper's related
// work section contrasts WFAsic against: an adaptively banded
// Smith-Waterman-Gotoh in the style of ABSW [13], and a Darwin/GACT-style
// tiled aligner [20]. Both can return suboptimal alignments — "Unlike
// WFAsic, many of these methods incorporate heuristics that can compromise
// the accuracy of the results" (Section 6) — and the heuristic-accuracy
// ablation quantifies exactly that against the exact WFA.
package heuristic

import (
	"fmt"
	"math"

	"repro/internal/align"
)

const inf = math.MaxInt32 / 4

// Stats counts heuristic work for cost comparisons.
type Stats struct {
	CellsComputed int64
}

// BandedAlign runs gap-affine SWG restricted to an adaptive band of
// half-width w: row i evaluates columns [center-w, center+w], where the
// center follows the best column of the previous row. Memory and time are
// O(n*w). The result is exact whenever the optimal path stays inside the
// band and may be suboptimal (or fail) otherwise. Invalid penalties —
// reachable from user input through the driver API — return an error.
func BandedAlign(a, b []byte, p align.Penalties, w int) (align.Result, Stats, error) {
	if err := p.Validate(); err != nil {
		return align.Result{}, Stats{}, penaltyError(err)
	}
	if w < 1 {
		w = 1
	}
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		res, st := degenerate(a, b, p)
		return res, st, nil
	}
	width := 2*w + 1
	x, o, e := int32(p.Mismatch), int32(p.GapOpen), int32(p.GapExtend)

	// Banded storage: row i holds columns lo[i] .. lo[i]+width-1, flattened
	// into one slab per matrix (rather than one make per row, which dominated
	// the allocation profile). O(n*w) per call is the design point of the
	// heuristic, so the slab allocations themselves are waived.
	bd := bandDP{
		width: width,
		lo:    make([]int, n+1),           //vet:allow hotalloc banded workspace allocated per call by design
		M:     make([]int32, (n+1)*width), //vet:allow hotalloc banded workspace allocated per call by design
		I:     make([]int32, (n+1)*width), //vet:allow hotalloc banded workspace allocated per call by design
		D:     make([]int32, (n+1)*width), //vet:allow hotalloc banded workspace allocated per call by design
		tb:    make([]uint8, (n+1)*width), //vet:allow hotalloc banded workspace allocated per call by design
	}
	const (
		mDiag  = 0
		mFromI = 1
		mFromD = 2
	)

	var st Stats
	// Row 0: pure insertions.
	bd.lo[0] = 0
	bd.initRow(0)
	for j := 0; j < width && j <= m; j++ {
		if j == 0 {
			bd.M[0] = 0
		} else {
			bd.I[j] = o + int32(j)*e
			bd.M[j] = bd.I[j]
			bd.tb[j] = mFromI | 4 // I chain
		}
	}

	bestCol := 0
	for i := 1; i <= n; i++ {
		center := bestCol + 1
		l := center - w
		if l < 0 {
			l = 0
		}
		if l > m-width+1 {
			l = m - width + 1
		}
		if l < 0 {
			l = 0
		}
		bd.lo[i] = l
		bd.initRow(i)
		ai := a[i-1]
		best := int32(inf)
		row := i * width
		for j := l; j < l+width && j <= m; j++ {
			st.CellsComputed++
			idx := row + j - l
			if j == 0 {
				bd.D[idx] = o + int32(i)*e
				bd.M[idx] = bd.D[idx]
				bd.tb[idx] = mFromD | 8
				if bd.M[idx] < best {
					best = bd.M[idx]
					bestCol = j
				}
				continue
			}
			openI := bd.get(bd.M, i, j-1) + o + e
			extI := bd.get(bd.I, i, j-1) + e
			var iExt uint8
			if extI < openI {
				bd.I[idx] = extI
				iExt = 4
			} else {
				bd.I[idx] = openI
			}
			openD := bd.get(bd.M, i-1, j) + o + e
			extD := bd.get(bd.D, i-1, j) + e
			var dExt uint8
			if extD < openD {
				bd.D[idx] = extD
				dExt = 8
			} else {
				bd.D[idx] = openD
			}
			sub := bd.get(bd.M, i-1, j-1)
			if sub < inf {
				if ai != b[j-1] {
					sub += x
				}
			}
			v, from := sub, uint8(mDiag)
			if bd.I[idx] < v {
				v, from = bd.I[idx], mFromI
			}
			if bd.D[idx] < v {
				v, from = bd.D[idx], mFromD
			}
			bd.M[idx] = v
			bd.tb[idx] = from | iExt | dExt
			if v < best {
				best = v
				bestCol = j
			}
		}
	}

	final := bd.get(bd.M, n, m)
	if final >= inf {
		// The band drifted away from the corner: heuristic failure.
		return align.Result{Success: false}, st, nil
	}

	// Traceback inside the band. Every op consumes at least one of i and j,
	// so n+m bounds the path length and the appends below never grow.
	rev := make([]align.Op, 0, n+m) //vet:allow hotalloc banded workspace allocated per call by design
	i, j := n, m
	mat := byte('M')
	for i > 0 || j > 0 {
		if j < bd.lo[i] || j >= bd.lo[i]+width {
			return align.Result{Success: false}, st, nil
		}
		cell := bd.tb[i*width+j-bd.lo[i]]
		switch mat {
		case 'M':
			switch cell & 3 {
			case mDiag:
				if i == 0 || j == 0 {
					// Row-0/col-0 cells tagged diag are the origin.
					return align.Result{Success: false}, st, nil
				}
				if a[i-1] == b[j-1] {
					rev = append(rev, align.OpMatch)
				} else {
					rev = append(rev, align.OpMismatch)
				}
				i--
				j--
			case mFromI:
				mat = 'I'
			case mFromD:
				mat = 'D'
			}
		case 'I':
			ext := cell&4 != 0
			rev = append(rev, align.OpInsert)
			j--
			if !ext {
				mat = 'M'
			}
		case 'D':
			ext := cell&8 != 0
			rev = append(rev, align.OpDelete)
			i--
			if !ext {
				mat = 'M'
			}
		}
	}
	cigar := make(align.CIGAR, len(rev)) //vet:allow hotalloc result buffer owned by the caller
	for k, op := range rev {
		cigar[len(rev)-1-k] = op
	}
	return align.Result{Score: int(final), CIGAR: cigar, Success: true}, st, nil
}

// penaltyError wraps BandedAlign's penalty-validation failure. It runs on
// the reject path only.
//
//vet:coldpath
func penaltyError(err error) error {
	return fmt.Errorf("heuristic: %w", err)
}

// bandDP is the banded DP workspace: one flat row-major slab per matrix,
// with per-row column windows lo[i] .. lo[i]+width-1. The traceback slab
// packs M origin (2b) | I ext (1b) | D ext (1b).
type bandDP struct {
	width   int
	lo      []int
	M, I, D []int32
	tb      []uint8
}

// initRow marks every cell of row i unreachable.
func (bd *bandDP) initRow(i int) {
	row := i * bd.width
	for j := row; j < row+bd.width; j++ {
		bd.M[j], bd.I[j], bd.D[j] = inf, inf, inf
	}
}

// get reads matrix cell (i, j) with out-of-band reads yielding inf.
func (bd *bandDP) get(mat []int32, i, j int) int32 {
	if i < 0 || j < bd.lo[i] || j >= bd.lo[i]+bd.width {
		return inf
	}
	return mat[i*bd.width+j-bd.lo[i]]
}

// degenerate handles empty-sequence alignments exactly.
func degenerate(a, b []byte, p align.Penalties) (align.Result, Stats) {
	cigar := make(align.CIGAR, 0, len(a)+len(b)) //vet:allow hotalloc result buffer owned by the caller
	for range a {
		cigar = append(cigar, align.OpDelete)
	}
	for range b {
		cigar = append(cigar, align.OpInsert)
	}
	return align.Result{Score: cigar.Score(p), CIGAR: cigar, Success: true}, Stats{}
}
