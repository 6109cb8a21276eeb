package soc

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/seqgen"
	"repro/internal/seqio"
	"repro/internal/swg"
	"repro/internal/wfa"
)

// TestCrossEngineFuzz is a bounded in-tree version of cmd/wfasic-verify's
// campaign: random penalties, lengths, error rates, backtrace modes and
// aligner counts, with the full SoC result checked against the software WFA.
func TestCrossEngineFuzz(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	rng := rand.New(rand.NewPCG(1234, 5678))
	gen := seqgen.New(91, 92)
	for trial := 0; trial < trials; trial++ {
		pen := align.Penalties{
			Mismatch:  1 + rng.IntN(5),
			GapOpen:   rng.IntN(7),
			GapExtend: 1 + rng.IntN(3),
		}
		cfg := core.ChipConfig()
		cfg.Penalties = pen
		cfg.MaxReadLenCap = 512
		cfg.KMax = 300
		if trial%4 == 0 {
			cfg.NumAligners = 2
		}
		if trial%3 == 0 {
			cfg.ParallelSections = 16
		}
		bt := trial%2 == 0

		length := 1 + rng.IntN(280)
		rate := rng.Float64() * 0.15
		pair := gen.Pair(uint32(trial+1), length, rate)
		if len(pair.A) > cfg.MaxReadLenCap {
			pair.A = pair.A[:cfg.MaxReadLenCap]
		}

		s, err := New(cfg, 1<<24)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		set := &seqio.InputSet{Pairs: []seqio.Pair{pair}}
		rep, err := s.RunAccelerated(set, RunOptions{Backtrace: bt})
		if err != nil {
			t.Fatalf("trial %d (%v bt=%v): %v", trial, pen, bt, err)
		}
		hw := rep.Outcomes[0].Result
		sw, _, _ := wfa.Align(pair.A, pair.B, pen, wfa.Options{WithCIGAR: bt, MaxK: cfg.KMax})
		if hw.Success != sw.Success {
			t.Fatalf("trial %d (%v): success hw=%v sw=%v", trial, pen, hw.Success, sw.Success)
		}
		if !hw.Success {
			continue
		}
		if hw.Score != sw.Score {
			t.Fatalf("trial %d (%v): score hw=%d sw=%d", trial, pen, hw.Score, sw.Score)
		}
		if bt && hw.CIGAR.String() != sw.CIGAR.String() {
			t.Fatalf("trial %d (%v): CIGAR mismatch\n hw=%s\n sw=%s", trial, pen, hw.CIGAR, sw.CIGAR)
		}
	}
}

// FuzzJobConfig throws arbitrary register-level job parameters at the
// driver: zero and negative pair counts, misaligned and out-of-range
// addresses, MAX_READ_LEN extremes. Configure/Start must never panic, and
// any parameter set the hardware cannot serve must surface as a
// register-level rejection (ErrJobRejected), never as a hang or a crash.
func FuzzJobConfig(f *testing.F) {
	f.Add(int32(1), int32(112), uint64(0), uint64(1<<19), false)
	f.Add(int32(0), int32(112), uint64(0), uint64(1<<19), false)          // zero pairs
	f.Add(int32(-5), int32(112), uint64(0), uint64(1<<19), true)          // negative pairs
	f.Add(int32(2), int32(0), uint64(0), uint64(1<<19), false)            // zero read len
	f.Add(int32(2), int32(-16), uint64(0), uint64(1<<19), false)          // negative read len
	f.Add(int32(2), int32(100), uint64(0), uint64(1<<19), true)           // misaligned read len
	f.Add(int32(2), int32(1<<30), uint64(0), uint64(1<<19), false)        // read len over cap
	f.Add(int32(1), int32(112), uint64(7), uint64(1<<19), false)          // misaligned input
	f.Add(int32(1), int32(112), uint64(0), uint64(1<<19|9), true)         // misaligned output
	f.Add(int32(1), int32(112), uint64(1<<40), uint64(1<<19), false)      // input beyond memory
	f.Add(int32(1), int32(112), uint64(0), uint64(1<<40), false)          // output beyond memory
	f.Add(int32(1), int32(112), ^uint64(0)&^uint64(15), uint64(0), false) // input near 2^64
	f.Add(int32(1<<24), int32(2048), uint64(0), uint64(1<<19), false)     // region overflows memory
	const memBytes = 1 << 20
	f.Fuzz(func(t *testing.T, numPairs, maxReadLen int32, inAddr, outAddr uint64, bt bool) {
		cfg := testConfig()
		s, err := New(cfg, memBytes)
		if err != nil {
			t.Fatal(err)
		}
		job := JobConfig{
			InputAddr:  inAddr,
			OutputAddr: outAddr,
			NumPairs:   int(numPairs),
			MaxReadLen: int(maxReadLen),
			Backtrace:  bt,
		}
		if err := s.Driver.Configure(job); err != nil {
			t.Fatalf("Configure must accept any register values, got %v", err)
		}
		if err := s.Driver.Start(); err != nil {
			t.Fatal(err)
		}
		var pollErr error
		if err := s.protectOOM(func() error {
			_, pollErr = s.Driver.PollIdle(300_000)
			return nil
		}); err != nil {
			// A mid-job output overflow is caught by the memory model; the
			// production path (RunResilient) recovers from it the same way.
			return
		}
		// Mirror the machine's acceptance predicate: anything outside it must
		// have been rejected at the register level.
		mrl, np := int(maxReadLen), int(numPairs)
		valid := mrl >= 16 && mrl%16 == 0 && mrl <= cfg.MaxReadLenCap &&
			np > 0 && np <= 1<<24 &&
			inAddr%16 == 0 && outAddr%16 == 0 &&
			inAddr < memBytes && outAddr < memBytes
		if valid {
			valid = int64(inAddr)+int64(np)*int64(seqio.PairSections(mrl))*16 <= memBytes
		}
		if !valid && !errors.Is(pollErr, ErrJobRejected) {
			t.Fatalf("invalid job (pairs=%d mrl=%d in=%#x out=%#x) not rejected: %v",
				np, mrl, inAddr, outAddr, pollErr)
		}
	})
}

// FuzzAlignersAgree is the three-way differential of the two WFA tiers
// against the independent SWG oracle: the software tier (SoftwareAligner),
// the simulated accelerator (RunAccelerated, score-only and with backtrace)
// and swg.Score must agree on every pair. The bytes of a and b map to bases
// (A, C, G, T, N and their lowercase forms stay, any other byte becomes one
// of ACGT), x, o and e map into valid penalties (1..8, 0..10 and 1..5;
// in-range values map to themselves), and chipKMax picks k_max from {20, the
// chip's 3998}. The boundary seeds sit on Equation 6's bound under k_max =
// 20, where a software bound differing from the hardware's shows up as a
// Success split; the gap-open-0, indel-run and empty-read seeds drive both
// backtrace walks through gap chains that start or end at a read boundary;
// the lowercase seed is unsupported in both tiers alike.
func FuzzAlignersAgree(f *testing.F) {
	const readCap = 512
	read := seqgen.New(3, 4).RandomSequence(100)
	evenSubs := func(n int) []byte {
		b := append([]byte(nil), read...)
		for i := 0; i < n; i++ {
			pos := i * len(b) / n
			code, _ := seqio.Code2Bit(b[pos])
			b[pos] = seqio.Base2Bit(code + 1)
		}
		return b
	}
	long := seqgen.New(5, 6).Pair(1, readCap, 0.05)
	over := seqgen.New(7, 8).RandomSequence(readCap + 1)
	f.Add([]byte{}, []byte{}, uint8(4), uint8(6), uint8(2), true)                                      // empty
	f.Add([]byte("A"), []byte("C"), uint8(4), uint8(6), uint8(2), true)                                // length 1
	f.Add(long.A[:readCap], long.B[:min(len(long.B), readCap)], uint8(4), uint8(6), uint8(2), true)    // at the cap
	f.Add([]byte("ACGTNACGT"), []byte("ACGTAACGT"), uint8(4), uint8(6), uint8(2), true)                // 'N' base
	f.Add(over, over, uint8(4), uint8(6), uint8(2), false)                                             // over the cap
	f.Add(read, evenSubs(42), uint8(1), uint8(6), uint8(2), false)                                     // score 42, Score_max 41
	f.Add(read, evenSubs(43), uint8(1), uint8(6), uint8(2), false)                                     // score 43, Score_max 41
	f.Add(read, evenSubs(44), uint8(1), uint8(6), uint8(2), false)                                     // score 44, Score_max 41
	f.Add(read, evenSubs(22), uint8(2), uint8(6), uint8(2), false)                                     // score 44, Score_max 42
	f.Add(read, evenSubs(9), uint8(5), uint8(6), uint8(2), false)                                      // score 45, Score_max 45
	f.Add(long.A[:200], long.B[:200], uint8(4), uint8(0), uint8(2), true)                              // gap-open 0
	f.Add(read, append([]byte("GGTTGG"), read...), uint8(4), uint8(6), uint8(2), true)                 // leading insertion run
	f.Add(append(append([]byte(nil), read...), "CCAACC"...), read, uint8(4), uint8(6), uint8(2), true) // trailing deletion run
	f.Add([]byte{}, []byte("ACGTACGT"), uint8(4), uint8(6), uint8(2), true)                            // empty read against a non-empty one
	f.Add([]byte("acgtacgt"), []byte("ACGTTCGT"), uint8(4), uint8(6), uint8(2), true)                  // lowercase bases
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, xb, ob, eb uint8, chipKMax bool) {
		bases := func(raw []byte) []byte {
			out := make([]byte, len(raw))
			for i, c := range raw {
				switch c {
				case 'A', 'C', 'G', 'T', 'N', 'a', 'c', 'g', 't', 'n':
				default:
					c = seqio.Alphabet[c&3]
				}
				out[i] = c
			}
			return out
		}
		p := seqio.Pair{ID: 1, A: bases(rawA), B: bases(rawB)}
		cfg := core.ChipConfig()
		cfg.MaxReadLenCap = readCap
		cfg.Penalties = align.Penalties{
			Mismatch:  1 + int(xb-1)%8,
			GapOpen:   int(ob) % 11,
			GapExtend: 1 + int(eb-1)%5,
		}
		if !chipKMax {
			cfg.KMax = 20
		}
		pen := cfg.Penalties
		supported := pairSupported(cfg, p)

		sw := NewSoftwareAligner(cfg)
		swScore, _ := sw.Align(p, false)
		swCIGAR, _ := sw.Align(p, true)
		if swScore.Success != swCIGAR.Success || swScore.Score != swCIGAR.Score {
			t.Fatalf("software modes disagree: score-only %+v, CIGAR %+v", swScore, swCIGAR)
		}
		if swScore.Success {
			oracle, _ := swg.Score(p.A, p.B, pen)
			if swScore.Score < oracle {
				t.Fatalf("software score %d below the SWG optimum %d", swScore.Score, oracle)
			}
			if cfg.KMax >= max(len(p.A), len(p.B)) && swScore.Score != oracle {
				t.Fatalf("software score %d, SWG optimum %d with k_max %d covering every diagonal",
					swScore.Score, oracle, cfg.KMax)
			}
			if got, ok := integrity.ReplayScore(swCIGAR.CIGAR, p.A, p.B, pen); !ok || got != swScore.Score {
				t.Fatalf("software CIGAR %s replays to (%d, %v), want %d", swCIGAR.CIGAR, got, ok, swScore.Score)
			}
		}

		s, err := New(cfg, 1<<23)
		if err != nil {
			t.Fatal(err)
		}
		set := &seqio.InputSet{MaxReadLen: readCap, Pairs: []seqio.Pair{p}}
		for _, bt := range []bool{false, true} {
			rep, err := s.RunAccelerated(set, RunOptions{Backtrace: bt})
			if err != nil {
				t.Fatalf("bt=%v %v: %v", bt, pen, err)
			}
			hw := rep.Outcomes[0].Result
			unsupported, _ := rep.Perf.Get("extractor.unsupported")
			if (unsupported == 1) != !supported {
				t.Fatalf("bt=%v: hardware unsupported count %d, pairSupported %v", bt, unsupported, supported)
			}
			if hw.Success != swScore.Success || (hw.Success && hw.Score != swScore.Score) {
				t.Fatalf("bt=%v %v kmax=%d |a|=%d |b|=%d: hardware (%v, %d), software (%v, %d)",
					bt, pen, cfg.KMax, len(p.A), len(p.B), hw.Success, hw.Score, swScore.Success, swScore.Score)
			}
			if !bt || !hw.Success {
				continue
			}
			if hw.CIGAR.String() != swCIGAR.CIGAR.String() {
				t.Fatalf("%v: CIGAR mismatch\n hw=%s\n sw=%s", pen, hw.CIGAR, swCIGAR.CIGAR)
			}
			if got, ok := integrity.ReplayScore(hw.CIGAR, p.A, p.B, pen); !ok || got != hw.Score {
				t.Fatalf("hardware CIGAR %s replays to (%d, %v), want %d", hw.CIGAR, got, ok, hw.Score)
			}
		}
	})
}
