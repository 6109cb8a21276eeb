package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/seqio"
	"repro/internal/serve"
	"repro/internal/soc"
)

// gate is the correctness gate. Every answer the benchmark receives is
// compared with soc.SoftwareAlign on the same input: success and score, and
// under backtrace the CIGAR must also replay to the score. The first answer
// to each input feeds the workload's digest. Inputs are numbered 0..n-1.
type gate struct {
	cfg     core.Config
	pairs   []seqio.Pair
	want    []align.Result
	cigar   bool
	corrupt func(int, *align.Result)

	mu        sync.Mutex
	first     []*align.Result
	attempted int64
	failed    int64
}

// newGate computes the expected answers, spread over one goroutine per CPU.
func newGate(cfg core.Config, pairs []seqio.Pair, cigar bool, corrupt func(int, *align.Result)) *gate {
	g := &gate{
		cfg:     cfg,
		pairs:   pairs,
		want:    make([]align.Result, len(pairs)),
		cigar:   cigar,
		corrupt: corrupt,
		first:   make([]*align.Result, len(pairs)),
	}
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pairs); i += workers {
				g.want[i], _ = soc.SoftwareAlign(cfg, pairs[i], cigar)
			}
		}(w)
	}
	wg.Wait()
	return g
}

// check records one answer for input i and reports whether it is right.
func (g *gate) check(i int, got align.Result) bool {
	if g.corrupt != nil {
		g.corrupt(i, &got)
	}
	want := g.want[i]
	ok := got.Success == want.Success && (!want.Success || got.Score == want.Score)
	if ok && g.cigar && got.Success {
		p := g.pairs[i]
		ok = integrity.CheckCIGAR(got.CIGAR, p.A, p.B, got.Score, g.cfg.Penalties) == nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if !ok {
		g.failed++
	}
	if g.first[i] == nil {
		g.first[i] = &got
	}
	return ok
}

// miss records n inputs that got no answer: a transport error, a non-2xx
// status, a shed request or a deadline outcome.
func (g *gate) miss(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted += int64(n)
	g.failed += int64(n)
}

// checkServe checks one serve response; the request's pair IDs are gate
// input numbers. It reports whether every pair was answered correctly.
func (g *gate) checkServe(pairs []seqio.Pair, results []serve.PairResult) bool {
	if len(results) != len(pairs) {
		g.miss(len(pairs))
		return false
	}
	ok := true
	for i, pr := range results {
		if pr.ID != pairs[i].ID || pr.Deadline {
			g.miss(1)
			ok = false
			continue
		}
		res := align.Result{Score: pr.Score, Success: pr.Success}
		if pr.CIGAR != "" {
			c, err := align.ParseCIGAR(pr.CIGAR)
			if err != nil {
				g.miss(1)
				ok = false
				continue
			}
			res.CIGAR = c
		}
		if !g.check(int(pairs[i].ID), res) {
			ok = false
		}
	}
	return ok
}

func (g *gate) counts() (attempted, failed int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed
}

// failFrac is failed answers over attempted ones.
func (g *gate) failFrac() float64 {
	a, f := g.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// digest hashes the first answer to every input, in input order. It is a
// function of the seed alone when every answer is right, so traced and
// untraced runs of one seed print the same digest.
func (g *gate) digest() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := sha256.New()
	for i, r := range g.first {
		switch {
		case r == nil:
			fmt.Fprintf(h, "%d unanswered\n", i)
		case !r.Success:
			fmt.Fprintf(h, "%d fail\n", i)
		default:
			fmt.Fprintf(h, "%d %d %s\n", i, r.Score, r.CIGAR.String())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
