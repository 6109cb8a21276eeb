package bt

import (
	"runtime"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/seqgen"
	"repro/internal/seqio"
	"repro/internal/wfa"
)

func testConfig() core.Config {
	cfg := core.ChipConfig()
	cfg.MaxReadLenCap = 2048
	cfg.KMax = 512
	return cfg
}

// runBTJob drives a machine over the set with backtrace enabled and returns
// the raw output region and the transaction count.
func runBTJob(t *testing.T, cfg core.Config, set *seqio.InputSet) ([]byte, int) {
	t.Helper()
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	memBytes := 1 << 24
	m, memory, err := core.NewStandaloneMachine(cfg, memBytes)
	if err != nil {
		t.Fatal(err)
	}
	outputAddr := int64((len(img) + 31) &^ 15)
	memory.Write(0, img)
	r := m.Regs
	r.Write(core.RegMaxReadLen, uint32(set.EffectiveMaxReadLen()))
	r.Write(core.RegBTEnable, 1)
	r.Write(core.RegInputAddrLo, 0)
	r.Write(core.RegNumPairs, uint32(len(set.Pairs)))
	r.Write(core.RegOutputAddrLo, uint32(outputAddr))
	r.Write(core.RegCtrl, core.CtrlStart)
	if _, err := m.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	count, _ := r.Read(core.RegOutCount)
	return memory.Read(outputAddr, int(count)*mem.BeatBytes), int(count)
}

func pairsByID(set *seqio.InputSet) map[uint32]seqio.Pair {
	mp := map[uint32]seqio.Pair{}
	for _, p := range set.Pairs {
		mp[p.ID&core.BTIDMask] = p
	}
	return mp
}

func checkDecoded(t *testing.T, cfg core.Config, set *seqio.InputSet, got []Alignment) {
	t.Helper()
	byID := map[uint32]Alignment{}
	for _, al := range got {
		byID[al.ID] = al
	}
	for _, p := range set.Pairs {
		al, ok := byID[p.ID&core.BTIDMask]
		if !ok {
			t.Fatalf("pair %d missing from decode", p.ID)
		}
		ref, _, _ := wfa.Align(p.A, p.B, cfg.Penalties, wfa.Options{WithCIGAR: true, MaxK: cfg.KMax})
		if al.Result.Success != ref.Success {
			t.Fatalf("pair %d: success hw=%v sw=%v", p.ID, al.Result.Success, ref.Success)
		}
		if !ref.Success {
			continue
		}
		if al.Result.Score != ref.Score {
			t.Fatalf("pair %d: score hw=%d sw=%d", p.ID, al.Result.Score, ref.Score)
		}
		if err := al.Result.CIGAR.Validate(p.A, p.B); err != nil {
			t.Fatalf("pair %d: decoded CIGAR invalid: %v", p.ID, err)
		}
		if got := al.Result.CIGAR.Score(cfg.Penalties); got != ref.Score {
			t.Fatalf("pair %d: decoded CIGAR rescores to %d, want %d", p.ID, got, ref.Score)
		}
		// The hardware and software share tie-breaking, so the transcripts
		// must be identical, not merely co-optimal.
		if al.Result.CIGAR.String() != ref.CIGAR.String() {
			t.Fatalf("pair %d: CIGAR mismatch\n hw=%s\n sw=%s", p.ID, al.Result.CIGAR, ref.CIGAR)
		}
	}
}

func TestDecodeSingleAlignerNoSeparation(t *testing.T) {
	cfg := testConfig()
	g := seqgen.New(60, 61)
	set := &seqio.InputSet{}
	for i := 0; i < 8; i++ {
		set.Pairs = append(set.Pairs, g.Pair(uint32(i+1), 50+i*45, 0.04+0.01*float64(i%5)))
	}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)
	got, st, err := dec.DecodeRegion(raw, count, pairsByID(set), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.SeparatedBytes != 0 {
		t.Fatalf("single-aligner path copied %d bytes; separation must be skipped", st.SeparatedBytes)
	}
	// The jump method touches only the score records — O(pairs), never the
	// bulk of the stream (that is what Figure 11 measures).
	if st.TransactionsScanned != int64(len(set.Pairs)) {
		t.Fatalf("scanned %d transactions, want %d (one score record per pair; region has %d)",
			st.TransactionsScanned, len(set.Pairs), count)
	}
	checkDecoded(t, cfg, set, got)
}

func TestDecodeWithSeparation(t *testing.T) {
	cfg := testConfig()
	g := seqgen.New(62, 63)
	set := &seqio.InputSet{}
	for i := 0; i < 6; i++ {
		set.Pairs = append(set.Pairs, g.Pair(uint32(i+1), 80+i*60, 0.08))
	}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)
	got, st, err := dec.DecodeRegion(raw, count, pairsByID(set), true)
	if err != nil {
		t.Fatal(err)
	}
	if st.SeparatedBytes == 0 {
		t.Fatal("separation path copied nothing")
	}
	checkDecoded(t, cfg, set, got)
}

func TestDecodeMultiAlignerInterleaved(t *testing.T) {
	cfg := testConfig()
	cfg.NumAligners = 3
	g := seqgen.New(64, 65)
	set := &seqio.InputSet{}
	for i := 0; i < 9; i++ {
		set.Pairs = append(set.Pairs, g.Pair(uint32(i+1), 200, 0.10))
	}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)
	got, _, err := dec.DecodeRegion(raw, count, pairsByID(set), true)
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, cfg, set, got)
}

func TestDecodeSmallerParallelSections(t *testing.T) {
	// PS=32 gives 20-byte blocks (two 10-byte chunks per block) — a
	// different chunking geometry than the chip's 40-byte blocks.
	cfg := testConfig()
	cfg.ParallelSections = 32
	g := seqgen.New(66, 67)
	set := &seqio.InputSet{Pairs: []seqio.Pair{g.Pair(1, 300, 0.07)}}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)
	got, _, err := dec.DecodeRegion(raw, count, pairsByID(set), false)
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, cfg, set, got)
}

func TestDecodePS8PaddedBlocks(t *testing.T) {
	// PS=8 gives 5-byte blocks, which the Collector zero-pads to one
	// 10-byte chunk each; the decoder must honor the padded stride.
	cfg := testConfig()
	cfg.ParallelSections = 8
	g := seqgen.New(68, 69)
	set := &seqio.InputSet{Pairs: []seqio.Pair{g.Pair(1, 120, 0.05)}}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)
	got, _, err := dec.DecodeRegion(raw, count, pairsByID(set), false)
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, cfg, set, got)
}

func TestDecodeLargerParallelSections(t *testing.T) {
	// PS=128 gives 80-byte blocks (eight 10-byte chunks per block).
	cfg := testConfig()
	cfg.ParallelSections = 128
	g := seqgen.New(80, 81)
	set := &seqio.InputSet{Pairs: []seqio.Pair{g.Pair(1, 400, 0.09)}}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)
	got, _, err := dec.DecodeRegion(raw, count, pairsByID(set), false)
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, cfg, set, got)
}

func TestDecodeNonDefaultPenalties(t *testing.T) {
	// The decoder's range replay and walk must honor the configured
	// penalties, not (4,6,2).
	cfg := testConfig()
	cfg.Penalties = align.Penalties{Mismatch: 2, GapOpen: 3, GapExtend: 1}
	g := seqgen.New(82, 83)
	set := &seqio.InputSet{Pairs: []seqio.Pair{
		g.Pair(1, 200, 0.08),
		g.Pair(2, 120, 0.12),
	}}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)
	got, _, err := dec.DecodeRegion(raw, count, pairsByID(set), false)
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, cfg, set, got)
}

func TestDecodeIdenticalSequences(t *testing.T) {
	cfg := testConfig()
	g := seqgen.New(70, 71)
	s := g.RandomSequence(500)
	set := &seqio.InputSet{Pairs: []seqio.Pair{{ID: 1, A: s, B: s}}}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)
	got, st, err := dec.DecodeRegion(raw, count, pairsByID(set), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.WalkSteps != 0 {
		t.Fatalf("identical sequences walked %d steps", st.WalkSteps)
	}
	checkDecoded(t, cfg, set, got)
	if got[0].Result.Score != 0 || len(got[0].Result.CIGAR) != 500 {
		t.Fatalf("identical decode: %+v", got[0].Result)
	}
}

func TestDecodeFailedAlignment(t *testing.T) {
	cfg := testConfig()
	cfg.KMax = 16 // Score_max = 36
	a := make([]byte, 64)
	b := make([]byte, 64)
	for i := range a {
		a[i], b[i] = 'A', 'A'
	}
	for i := 0; i < 12; i++ {
		b[i*5] = 'C' // 12 mismatches: score 48 > 36
	}
	set := &seqio.InputSet{Pairs: []seqio.Pair{{ID: 1, A: a, B: b}}, MaxReadLen: 64}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)
	got, _, err := dec.DecodeRegion(raw, count, pairsByID(set), false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Result.Success {
		t.Fatal("over-budget alignment decoded as success")
	}
}

func TestDecodeCorruptStream(t *testing.T) {
	cfg := testConfig()
	g := seqgen.New(72, 73)
	set := &seqio.InputSet{Pairs: []seqio.Pair{g.Pair(1, 150, 0.08)}}
	raw, count := runBTJob(t, cfg, set)
	dec := NewDecoder(cfg)

	// Truncating the final transaction leaves no Last flag.
	if _, _, err := dec.DecodeRegion(raw, count-1, pairsByID(set), false); err == nil {
		t.Error("truncated stream decoded without error")
	}
	// Flipping payload bits must yield a structured error, never a panic or
	// a silently wrong CIGAR that still validates with the right score.
	corrupt := append([]byte(nil), raw...)
	for i := 0; i < len(corrupt)-mem.BeatBytes; i += 7 * mem.BeatBytes {
		corrupt[i] ^= 0x15
	}
	got, _, err := dec.DecodeRegion(corrupt, count, pairsByID(set), false)
	if err == nil {
		for _, al := range got {
			if al.Result.Success {
				if e := al.Result.CIGAR.Validate(set.Pairs[0].A, set.Pairs[0].B); e == nil &&
					al.Result.CIGAR.Score(cfg.Penalties) == al.Result.Score {
					// Corruption happened to be harmless for the walked
					// cells — acceptable.
					continue
				}
				t.Error("corrupt stream produced an inconsistent successful decode")
			}
		}
	}
	// Unknown alignment ID.
	if _, _, err := dec.DecodeRegion(raw, count, map[uint32]seqio.Pair{}, false); err == nil {
		t.Error("unknown ID decoded without error")
	}
}

// statsSet is a fixed seeded batch for the Stats pin: five pairs of
// 100..300 bp at 3-7% error that align, then one pair of unrelated
// sequences that exceeds Score_max under KMax 64 and fails.
func statsSet() (core.Config, *seqio.InputSet) {
	cfg := testConfig()
	cfg.KMax = 64
	g := seqgen.New(90, 91)
	set := &seqio.InputSet{}
	for i := 0; i < 5; i++ {
		set.Pairs = append(set.Pairs, g.Pair(uint32(i+1), 100+50*i, 0.03+0.01*float64(i)))
	}
	set.Pairs = append(set.Pairs, seqio.Pair{ID: 6, A: g.RandomSequence(200), B: g.RandomSequence(200)})
	return cfg, set
}

// TestDecodeStatsExact pins every decoder work counter on a fixed batch
// under both methods. cpumodel prices these counters for Figures 9 and 11
// and Table 2, so a change to how the decoder walks or indexes a stream must
// leave them unchanged, or move them deliberately.
func TestDecodeStatsExact(t *testing.T) {
	cfg, set := statsSet()
	raw, count := runBTJob(t, cfg, set)
	for _, tc := range []struct {
		separate bool
		want     Stats
	}{
		{false, Stats{TransactionsScanned: 6, RangeSteps: 338, WalkSteps: 56, MatchesInserted: 957, OriginBytesTouched: 112}},
		{true, Stats{TransactionsScanned: 1766, SeparatedBytes: 17600, RangeSteps: 338, WalkSteps: 56, MatchesInserted: 957, OriginBytesTouched: 112}},
	} {
		got, st, err := NewDecoder(cfg).DecodeRegion(raw, count, pairsByID(set), tc.separate)
		if err != nil {
			t.Fatalf("separate=%v: %v", tc.separate, err)
		}
		if got[len(got)-1].Result.Success {
			t.Fatalf("separate=%v: the unrelated pair decoded as a success", tc.separate)
		}
		checkDecoded(t, cfg, set, got)
		if st != tc.want {
			t.Errorf("separate=%v: Stats = %+v, want %+v", tc.separate, st, tc.want)
		}
	}
}

// mallocs returns the exact number of heap allocations sweeps calls of f
// make (testing.AllocsPerRun would truncate the average).
func mallocs(sweeps int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range sweeps {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestDecoderReuseAllocs pins the steady-state allocations of a reused
// Decoder's no-separation decode: once the layout and the walk scratch have
// grown, a decode allocates only what it returns, the result slice and one
// CIGAR per successful alignment.
func TestDecoderReuseAllocs(t *testing.T) {
	cfg, set := statsSet()
	raw, count := runBTJob(t, cfg, set)
	pairs := pairsByID(set)
	dec := NewDecoder(cfg)
	decode := func() {
		if _, _, err := dec.DecodeRegion(raw, count, pairs, false); err != nil {
			t.Fatal(err)
		}
	}
	decode() // warm-up
	if got := mallocs(4, decode); got != 4*6 {
		t.Errorf("4 warm decodes allocated %d objects, want %d", got, 4*6)
	}
}
