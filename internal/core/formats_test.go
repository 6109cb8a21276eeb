package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/seqio"
	"repro/internal/wfa"
)

func TestNBTRecordRoundTrip(t *testing.T) {
	cases := []NBTRecord{
		{Success: true, Score: 0, ID: 0},
		{Success: true, Score: 8000, ID: 65535},
		{Success: false, Score: 0, ID: 42},
		{Success: true, Score: 0x7FFF, ID: 7},
	}
	for _, rec := range cases {
		packed := rec.Pack()
		back, err := UnpackNBTRecord(packed[:])
		if err != nil {
			t.Fatal(err)
		}
		if back != rec {
			t.Errorf("round trip %+v -> %+v", rec, back)
		}
	}
	if _, err := UnpackNBTRecord([]byte{1, 2}); err == nil {
		t.Error("short NBT record accepted")
	}
}

func TestBTTransactionRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		var tr BTTransaction
		for i := range tr.Payload {
			tr.Payload[i] = byte(r.UintN(256))
		}
		tr.Counter = uint32(r.UintN(1 << 24))
		tr.Last = r.IntN(2) == 0
		tr.ID = uint32(r.UintN(1 << 23))
		packed := tr.Pack()
		back, err := UnpackBTTransaction(packed[:])
		return err == nil && back == tr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreRecordRoundTrip(t *testing.T) {
	cases := []ScoreRecord{
		{Success: true, K: 0, Score: 0},
		{Success: true, K: -3998, Score: 8000},
		{Success: false, K: 3998, Score: 0},
		{Success: true, K: -1, Score: 1},
	}
	for _, rec := range cases {
		if got := UnpackScoreRecord(rec.PackPayload()); got != rec {
			t.Errorf("round trip %+v -> %+v", rec, got)
		}
	}
}

func TestOriginBlockPackAndExtract(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 4))
		n := 8 * (1 + r.IntN(8)) // multiples of 8 sections
		origins := make([]uint8, n)
		for i := range origins {
			origins[i] = uint8(r.UintN(32))
		}
		// A dirty destination checks that packing overwrites, not ORs into,
		// the caller's buffer.
		block := make([]byte, 5*n/8)
		for i := range block {
			block[i] = 0xFF
		}
		PackOriginBlock(block, origins)
		for i, want := range origins {
			if OriginAt(block, i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChipBTBlockIs320Bits(t *testing.T) {
	cfg := ChipConfig()
	if got := cfg.BTBlockBytes(); got != 40 {
		t.Fatalf("BT block = %d bytes, want 40 (320 bits, Section 4.3.3)", got)
	}
}

func TestEquation5And6(t *testing.T) {
	cfg := ChipConfig()
	if got := cfg.ScoreMax(); got != 8000 {
		t.Fatalf("ScoreMax=%d want 8000 (Equation 6 with k_max=3998)", got)
	}
	// Equation 5 example: all-gap-openings worst case allows 1000
	// differences.
	if got := cfg.MaxDetectableDifferences(); got != 1000 {
		t.Fatalf("MaxDetectableDifferences=%d want 1000", got)
	}
	if !cfg.ErrorBudgetSatisfied(1000, 500, 500) { // 4000+4000+1000 > 8000? = 9000: no!
		// 1000*4 + 500*8 + 500*2 = 9000 > 8000, must be false.
	} else {
		t.Fatal("budget of 9000 accepted against ScoreMax 8000")
	}
	if !cfg.ErrorBudgetSatisfied(1000, 400, 400) { // 4000+3200+800 = 8000
		t.Fatal("budget of exactly 8000 rejected")
	}
}

func TestConfigValidate(t *testing.T) {
	good := ChipConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumAligners = 0 },
		func(c *Config) { c.ParallelSections = 12 }, // not multiple of 8
		func(c *Config) { c.ParallelSections = 0 },
		func(c *Config) { c.MaxReadLenCap = 100 }, // not multiple of 16
		func(c *Config) { c.KMax = 0 },
		func(c *Config) { c.InputFIFODepth = 0 },
		func(c *Config) { c.Penalties.Mismatch = 0 },
	}
	for i, mutate := range bad {
		c := ChipConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestInputSeqRAMDepth(t *testing.T) {
	cfg := ChipConfig()
	// Section 4.2: "the depth is at least 627 words (10K / 16 + 2)".
	if got := cfg.InputSeqRAMDepth(); got != 627 {
		t.Fatalf("InputSeqRAMDepth=%d want 627", got)
	}
}

func TestBankingProperties(t *testing.T) {
	b := Banking{P: 64, KMax: 3998}
	if b.Rows() != 7997 {
		t.Fatalf("Rows=%d", b.Rows())
	}
	d1, d2 := b.DuplicatedBanks()
	if d1 != 0 || d2 != 63 {
		t.Fatalf("duplicated banks (%d,%d)", d1, d2)
	}
	r := rand.New(rand.NewPCG(8, 8))
	for trial := 0; trial < 500; trial++ {
		k := r.IntN(2*b.KMax+1) - b.KMax
		start := b.BatchStart(k)
		if b.RowOf(start)%b.P != 0 {
			t.Fatalf("BatchStart(%d)=%d not grid aligned", k, start)
		}
		if k < start || k >= start+b.P {
			t.Fatalf("k=%d outside its batch [%d,%d)", k, start, start+b.P)
		}
		if err := b.VerifyComputeAccess(start); err != nil {
			t.Fatalf("batch at %d: %v", start, err)
		}
	}
	// NumBatches sanity.
	if got := b.NumBatches(-3998, 3998); got != (7996/64)+1 {
		t.Fatalf("NumBatches full window = %d", got)
	}
	if got := b.NumBatches(5, 4); got != 0 {
		t.Fatalf("NumBatches empty = %d", got)
	}
	if got := b.NumBatches(0, 0); got != 1 {
		t.Fatalf("NumBatches single = %d", got)
	}
}

func TestBankingAddrOf(t *testing.T) {
	b := Banking{P: 4, KMax: 6} // 13 rows, 4 words per column per bank
	// Same column: consecutive rows in one bank are P apart.
	if b.AddrOf(0, -6) != 0 || b.AddrOf(0, -2) != 1 {
		t.Fatalf("AddrOf column 0: %d, %d", b.AddrOf(0, -6), b.AddrOf(0, -2))
	}
	// Distinct (column, k) pairs within one bank get distinct addresses.
	seen := map[[2]int]bool{} // (bank, addr)
	for col := 0; col < 5; col++ {
		for k := -6; k <= 6; k++ {
			key := [2]int{b.BankOf(k), b.AddrOf(col, k)}
			if seen[key] {
				t.Fatalf("bank/addr collision at col=%d k=%d: %v", col, k, key)
			}
			seen[key] = true
		}
	}
}

func TestBankingMacroCount(t *testing.T) {
	b := Banking{P: 64, KMax: 3998}
	// M~: 64 banks + 2 duplicates; merged I/D: 64 banks.
	if got := b.MacroCount(true); got != 130 {
		t.Fatalf("MacroCount(merged)=%d want 130", got)
	}
	if got := b.MacroCount(false); got != 194 {
		t.Fatalf("MacroCount(split)=%d want 194", got)
	}
}

// TestExtendDiagMatchesByteCompare checks the Extend sub-module as the
// Aligner runs it, the shared wfa.Extend over two loaded Input_Seq RAMs,
// against a plain byte comparison from random cells: the match count, and
// one comparator block per 16 matches plus the block that ended the run.
func TestExtendDiagMatchesByteCompare(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	randSeq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = seqio.Alphabet[r.IntN(4)]
		}
		return s
	}
	var ra, rb SeqRAM
	for trial := 0; trial < 300; trial++ {
		la, lb := 1+r.IntN(200), 1+r.IntN(200)
		a := randSeq(la)
		b := randSeq(lb)
		// Plant a shared run at random positions to exercise long matches.
		if trial%3 == 0 {
			run := randSeq(1 + r.IntN(60))
			copy(a[r.IntN(la):], run)
			copy(b[r.IntN(lb):], run)
		}
		if err := LoadSeqRAMInto(&ra, 0, a); err != nil {
			t.Fatal(err)
		}
		if err := LoadSeqRAMInto(&rb, 0, b); err != nil {
			t.Fatal(err)
		}
		i, j := r.IntN(la+1), r.IntN(lb+1)
		matches, blocks := extendCell(&ra, &rb, i, j)
		want := 0
		for i+want < la && j+want < lb && a[i+want] == b[j+want] {
			want++
		}
		if matches != want {
			t.Fatalf("extend(i=%d,j=%d): matches=%d want %d", i, j, matches, want)
		}
		if blocks != want/16+1 {
			t.Fatalf("blocks=%d for %d matches, want %d", blocks, want, want/16+1)
		}
	}
}

// TestWindow16 checks the 16-base window the shared extend assembles from
// two consecutive RAM words (REG_1/REG_2, Figure 7) at every start position
// of a two-word read: a mismatch planted at any of the window's 16 bases
// ends the run exactly there, and a read compared with itself runs to its
// end.
func TestWindow16(t *testing.T) {
	seq := []byte("ACGTTGCAAGCTTCGAGATCCTAGGCATTACG") // 32 bases
	var ram, mut SeqRAM
	if err := LoadSeqRAMInto(&ram, 0, seq); err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos <= len(seq); pos++ {
		if got, _ := extendCell(&ram, &ram, pos, pos); got != len(seq)-pos {
			t.Fatalf("self-extend from %d = %d, want %d", pos, got, len(seq)-pos)
		}
		for off := 0; off < 16 && pos+off < len(seq); off++ {
			b := append([]byte(nil), seq...)
			code, _ := seqio.Code2Bit(b[pos+off])
			b[pos+off] = seqio.Base2Bit(code + 1)
			if err := LoadSeqRAMInto(&mut, 0, b); err != nil {
				t.Fatal(err)
			}
			if got, _ := extendCell(&ram, &mut, pos, pos); got != off {
				t.Fatalf("extend from %d with a mismatch at %d = %d, want %d", pos, pos+off, got, off)
			}
		}
	}
}

// TestBTLayoutTilesTheStream checks Locate against the count Fill returns:
// walking scores and diagonals in order, the cells of every non-empty score
// fill fresh consecutive blocks, each cell lands on its own bank's 5 bits,
// and the blocks add up to exactly the stream Fill sized. Cells outside
// M~(s) and scores outside the filled range are errors.
func TestBTLayoutTilesTheStream(t *testing.T) {
	cfg := ChipConfig()
	cfg.KMax = 40
	const n, m, score = 150, 120, 90
	var l BTLayout
	for refill := 0; refill < 2; refill++ { // a refilled layout starts over
		tx := l.Fill(cfg, n, m, score)
		tracker := wfa.NewRangeTracker(cfg.Penalties, n, m, cfg.KMax)
		bank := Banking{P: cfg.ParallelSections, KMax: cfg.KMax}
		next := 0 // first block not yet used by an earlier score
		for s := 1; s <= score; s++ {
			_, _, mR := tracker.Extend(s)
			if _, _, _, err := l.Locate(s, mR.Hi+1); err == nil {
				t.Fatalf("s=%d: diagonal %d above M~ located", s, mR.Hi+1)
			}
			last := next - 1
			for k := mR.Lo; k <= mR.Hi; k++ {
				block, off, shift, err := l.Locate(s, k)
				if err != nil {
					t.Fatal(err)
				}
				if (k == mR.Lo && block != next) || block < last || block > last+1 {
					t.Fatalf("s=%d k=%d: block %d after block %d (score starts at %d)", s, k, block, last, next)
				}
				if bit := 5 * (bank.RowOf(k) % bank.P); off != bit/8 || shift != bit%8 {
					t.Fatalf("s=%d k=%d: byte %d shift %d, want bit %d", s, k, off, shift, bit)
				}
				last = block
			}
			next = last + 1
		}
		if want := next * cfg.BTBlockTransactions(); tx != want {
			t.Fatalf("Fill = %d transactions, Locate tiles %d", tx, want)
		}
		if _, _, _, err := l.Locate(score+1, 0); err == nil {
			t.Fatal("score past the filled range located")
		}
	}
}
