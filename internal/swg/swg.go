// Package swg implements the classic dynamic-programming baseline of the
// paper's Section 2: the gap-affine Smith-Waterman-Gotoh recurrence
// (Equation 2) in the global, error-minimizing form the paper uses. With
// GapOpen 0 it scores the gap-linear model of Equation 1. SWG computes the
// full O(n*m) DP-matrix and is the functional oracle the WFA implementation
// and the accelerator simulator are verified against: the WFA is exact, so
// all three must report identical scores.
package swg

import (
	"math"

	"repro/internal/align"
	"repro/internal/invariant"
)

// inf is a safe "unreachable" score: large enough to dominate, small enough
// never to overflow when penalties are added.
const inf = math.MaxInt32 / 4

// Stats counts the work the DP performed, for CUPS accounting and for the
// CPU cost model.
type Stats struct {
	CellsComputed int64 // DP cells evaluated (one count per (i,j), all three matrices)
}

// Align computes the optimal global gap-affine alignment of a and b with a
// full traceback. Memory is O(n*m); use Score for long sequences.
//
// Following Equation 2, M(i,j) takes the minimum over the diagonal
// substitution case and the I/D matrices at the same cell, so the final
// score is M(n,m).
func Align(a, b []byte, p align.Penalties) (align.Result, Stats) {
	if err := p.Validate(); err != nil {
		// if+Failf rather than Checkf: the guard keeps the ...any argument
		// slice off the happy path (hotalloc exempts the failure path).
		invariant.Failf("swg", "oracle called with invalid penalties: %v", err)
	}
	n, m := len(a), len(b)
	w := m + 1
	// Score matrices, flattened row-major. The full DP workspace is the point
	// of the oracle: O(n*m) per call, by design, so the hotalloc findings are
	// waived rather than pooled.
	M := make([]int32, (n+1)*w) //vet:allow hotalloc reference DP oracle allocates its matrix per call by design
	I := make([]int32, (n+1)*w) //vet:allow hotalloc reference DP oracle allocates its matrix per call by design
	D := make([]int32, (n+1)*w) //vet:allow hotalloc reference DP oracle allocates its matrix per call by design
	// Traceback: origin of each cell's value.
	const (
		fromDiag = 1 // M from substitution/match
		fromI    = 2 // M from I(i,j)
		fromD    = 3 // M from D(i,j)
		gapOpen  = 0 // I/D opened from M
		gapExt   = 1 // I/D extended
	)
	tbM := make([]uint8, (n+1)*w) //vet:allow hotalloc reference DP oracle allocates its matrix per call by design
	tbI := make([]uint8, (n+1)*w) //vet:allow hotalloc reference DP oracle allocates its matrix per call by design
	tbD := make([]uint8, (n+1)*w) //vet:allow hotalloc reference DP oracle allocates its matrix per call by design

	x, o, e := int32(p.Mismatch), int32(p.GapOpen), int32(p.GapExtend)

	// Boundary conditions: row 0 is reached only by insertions, column 0
	// only by deletions.
	M[0] = 0
	I[0], D[0] = inf, inf
	for j := 1; j <= m; j++ {
		I[j] = o + int32(j)*e
		tbI[j] = gapExt
		if j == 1 {
			tbI[j] = gapOpen
		}
		M[j] = I[j]
		tbM[j] = fromI
		D[j] = inf
	}
	for i := 1; i <= n; i++ {
		row := i * w
		D[row] = o + int32(i)*e
		tbD[row] = gapExt
		if i == 1 {
			tbD[row] = gapOpen
		}
		M[row] = D[row]
		tbM[row] = fromD
		I[row] = inf
	}

	var st Stats
	for i := 1; i <= n; i++ {
		row, prow := i*w, (i-1)*w
		ai := a[i-1]
		for j := 1; j <= m; j++ {
			st.CellsComputed++
			// I(i,j) = min(M(i,j-1)+o+e, I(i,j-1)+e)
			openI := M[row+j-1] + o + e
			extI := I[row+j-1] + e
			if openI <= extI {
				I[row+j] = openI
				tbI[row+j] = gapOpen
			} else {
				I[row+j] = extI
				tbI[row+j] = gapExt
			}
			// D(i,j) = min(M(i-1,j)+o+e, D(i-1,j)+e)
			openD := M[prow+j] + o + e
			extD := D[prow+j] + e
			if openD <= extD {
				D[row+j] = openD
				tbD[row+j] = gapOpen
			} else {
				D[row+j] = extD
				tbD[row+j] = gapExt
			}
			// M(i,j) = min(diag + sub, I(i,j), D(i,j)).
			sub := M[prow+j-1]
			if ai != b[j-1] {
				sub += x
			}
			best, from := sub, uint8(fromDiag)
			if I[row+j] < best {
				best, from = I[row+j], fromI
			}
			if D[row+j] < best {
				best, from = D[row+j], fromD
			}
			M[row+j] = best
			tbM[row+j] = from
		}
	}

	// Traceback from M(n,m). Every op consumes at least one of i and j, so
	// n+m bounds the path length and the appends below never grow.
	rev := make([]align.Op, 0, n+m) //vet:allow hotalloc reference DP oracle allocates its traceback per call by design
	i, j := n, m
	mat := byte('M')
	for i > 0 || j > 0 {
		switch mat {
		case 'M':
			switch tbM[i*w+j] {
			case fromDiag:
				if a[i-1] == b[j-1] {
					rev = append(rev, align.OpMatch)
				} else {
					rev = append(rev, align.OpMismatch)
				}
				i--
				j--
			case fromI:
				mat = 'I'
			case fromD:
				mat = 'D'
			}
		case 'I':
			open := tbI[i*w+j] == gapOpen
			rev = append(rev, align.OpInsert)
			j--
			if open {
				mat = 'M'
			}
		case 'D':
			open := tbD[i*w+j] == gapOpen
			rev = append(rev, align.OpDelete)
			i--
			if open {
				mat = 'M'
			}
		}
	}
	cigar := make(align.CIGAR, len(rev)) //vet:allow hotalloc result buffer owned by the caller
	for k, op := range rev {
		cigar[len(rev)-1-k] = op
	}
	return align.Result{Score: int(M[n*w+m]), CIGAR: cigar, Success: true}, st
}

// Score computes only the optimal gap-affine score with O(m) memory
// (two-row rolling arrays), suitable for long reads.
func Score(a, b []byte, p align.Penalties) (int, Stats) {
	if err := p.Validate(); err != nil {
		invariant.Failf("swg", "oracle called with invalid penalties: %v", err)
	}
	n, m := len(a), len(b)
	x, o, e := int32(p.Mismatch), int32(p.GapOpen), int32(p.GapExtend)

	curM := make([]int32, m+1)
	curI := make([]int32, m+1)
	curD := make([]int32, m+1)
	prvM := make([]int32, m+1)
	prvD := make([]int32, m+1)

	prvM[0] = 0
	prvD[0] = inf
	for j := 1; j <= m; j++ {
		prvM[j] = o + int32(j)*e
		prvD[j] = inf
	}

	var st Stats
	for i := 1; i <= n; i++ {
		curM[0] = o + int32(i)*e
		curD[0] = curM[0]
		curI[0] = inf
		ai := a[i-1]
		for j := 1; j <= m; j++ {
			st.CellsComputed++
			openI := curM[j-1] + o + e
			extI := curI[j-1] + e
			if extI < openI {
				curI[j] = extI
			} else {
				curI[j] = openI
			}
			openD := prvM[j] + o + e
			extD := prvD[j] + e
			if extD < openD {
				curD[j] = extD
			} else {
				curD[j] = openD
			}
			sub := prvM[j-1]
			if ai != b[j-1] {
				sub += x
			}
			best := sub
			if curI[j] < best {
				best = curI[j]
			}
			if curD[j] < best {
				best = curD[j]
			}
			curM[j] = best
		}
		prvM, curM = curM, prvM
		prvD, curD = curD, prvD
	}
	return int(prvM[m]), st
}
