package wfa

import (
	"runtime"
	"sync"

	"repro/internal/align"
	"repro/internal/seqio"
)

// BatchResult is one pair's outcome in a batch run.
type BatchResult struct {
	ID     uint32
	Result align.Result
	Stats  Stats
}

// AlignBatch aligns every pair concurrently on a pool of worker goroutines
// (each with its own Aligner — the Aligner itself is not safe for concurrent
// use). It is the software counterpart of the paper's multi-threaded
// WFA-CPU baseline (the EPYC rows of Table 2): embarrassingly parallel
// across pairs, with per-pair results in input order. workers <= 0 selects
// GOMAXPROCS. The penalties are validated once before the fan-out.
func AlignBatch(pairs []seqio.Pair, p align.Penalties, opts Options, workers int) ([]BatchResult, error) {
	if err := p.Validate(); err != nil {
		return nil, penaltyError(err)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	out := make([]BatchResult, len(pairs)) //vet:allow hotalloc result buffer owned by the caller
	if len(pairs) == 0 {
		return out, nil
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { //vet:allow hotalloc one worker closure per batch, amortized across its share of pairs
			defer wg.Done()
			al := newAligner(p, opts)
			for {
				mu.Lock()
				idx := next
				next++
				mu.Unlock()
				if idx >= len(pairs) {
					return
				}
				pair := pairs[idx]
				res := al.Run(pair.A, pair.B)
				out[idx] = BatchResult{ID: pair.ID, Result: res, Stats: al.Stats}
			}
		}()
	}
	wg.Wait()
	return out, nil
}
