package soc

import (
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/seqio"
)

// silentChaos is the all-silent fault mix: nothing in it raises an error —
// every class corrupts data in flight and lets the job report success.
func silentChaos(seed uint64) fault.Config {
	return fault.Config{
		Seed:              seed,
		DataFlipProb:      0.01,
		WavefrontFlipProb: 0.002,
		OutputFlipProb:    0.05,
		OutputDropProb:    0.02,
	}
}

// TestChaosSilentZeroWrongAnswers is the SDC defense's driver-level
// acceptance bar: silent faults on, the all-or-nothing ModeFull oracle
// OFF, shadow verification sampling at most 5% — and still every delivered
// outcome equals the software WFA's answer exactly, attempt after attempt,
// because the hardware evidence gates (ingest CRC, wavefront parity, output
// CRC) discard every tainted attempt before its results can be believed.
func TestChaosSilentZeroWrongAnswers(t *testing.T) {
	pairs, length := 24, 260
	if testing.Short() {
		pairs, length = 12, 140
	}
	policies := []struct {
		name   string
		verify integrity.Policy
	}{
		{"witness-only", integrity.Policy{Mode: integrity.ModeWitness}},
		{"sampled-1pct", integrity.Policy{Mode: integrity.ModeSampled, Rate: 0.01, Seed: 7}},
		{"sampled-5pct", integrity.Policy{Mode: integrity.ModeSampled, Rate: 0.05, Seed: 7}},
	}
	var evidence int
	for _, pol := range policies {
		for _, backtrace := range []bool{false, true} {
			name := pol.name + "-nbt"
			if backtrace {
				name = pol.name + "-bt"
			}
			t.Run(name, func(t *testing.T) {
				run := func() *ResilientReport {
					s, err := New(testConfig(), 1<<24)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.EnableFaults(silentChaos(909)); err != nil {
						t.Fatal(err)
					}
					set := testSet(pairs, length, 0.07)
					rep, err := s.RunResilient(set, ResilientOptions{
						Backtrace: backtrace, MaxAttempts: 4, Verify: pol.verify,
					})
					if err != nil {
						t.Fatalf("RunResilient: %v", err)
					}
					for i, p := range set.Pairs {
						want, _ := SoftwareAlign(s.Cfg, p, backtrace)
						got := rep.Outcomes[i].Result
						if got.Success != want.Success {
							t.Fatalf("pair %d: success=%v oracle=%v", p.ID, got.Success, want.Success)
						}
						if got.Success && got.Score != want.Score {
							t.Fatalf("pair %d: score=%d oracle=%d — a wrong answer was delivered", p.ID, got.Score, want.Score)
						}
						if backtrace && got.Success && got.CIGAR.String() != want.CIGAR.String() {
							t.Fatalf("pair %d: CIGAR %s oracle %s", p.ID, got.CIGAR, want.CIGAR)
						}
					}
					return rep
				}
				rep := run()
				evidence += rep.IntegrityDiscards + rep.WitnessRejects + rep.ShadowMismatches + rep.AuditFailures
				if rep.FaultEvents == 0 {
					t.Fatal("the silent schedule injected nothing")
				}
				// Same seed, same answers and same integrity accounting: the
				// defense is deterministic, not a lucky catch.
				rep2 := run()
				if rep.IntegrityDiscards != rep2.IntegrityDiscards ||
					rep.HwSDCInput != rep2.HwSDCInput ||
					rep.HwSDCWavefront != rep2.HwSDCWavefront ||
					rep.OutCRCMismatches != rep2.OutCRCMismatches ||
					rep.WitnessRejects != rep2.WitnessRejects {
					t.Fatalf("same-seed integrity accounting differs: %+v vs %+v", rep, rep2)
				}
			})
		}
	}
	if evidence == 0 {
		t.Fatal("no campaign produced any integrity evidence: the silent faults never landed")
	}
}

// TestInputWitnessCatchesEverySingleBitFlip is the exhaustive property: for a
// one-pair job whose image is 48 bytes (384 bits), every possible single-bit
// flip of the stored image — header, witness field or payload — trips the
// Extractor's ingest CRC check, visible to the driver as RegSDCInput == 1.
func TestInputWitnessCatchesEverySingleBitFlip(t *testing.T) {
	cfg := core.ChipConfig()
	s, err := New(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	set := &seqio.InputSet{Pairs: []seqio.Pair{{
		ID: 1, A: []byte("ACGTACGTACGTACGT"), B: []byte("ACGTACGTACGTTCGT"),
	}}}
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	maxReadLen := set.EffectiveMaxReadLen()
	if want := seqio.PairSections(maxReadLen) * seqio.SectionBytes; len(img) != want {
		t.Fatalf("image is %d bytes, want %d", len(img), want)
	}
	witness := seqio.PairWitness(img)
	if bits.OnesCount32(witness) < 2 {
		// A power-of-two witness has a one-bit path to the "no witness"
		// sentinel 0; pick a pair without that corner so the sweep is total.
		t.Fatalf("test pair's witness %#x has fewer than 2 bits set; choose different sequences", witness)
	}

	job := JobConfig{
		InputAddr: inputBase, OutputAddr: 1 << 16,
		NumPairs: 1, MaxReadLen: maxReadLen,
	}
	runOnce := func(image []byte) (sdc int, success bool) {
		t.Helper()
		if err := s.Driver.Reset(); err != nil {
			t.Fatal(err)
		}
		s.Memory.Write(inputBase, image)
		if err := s.Driver.Configure(job); err != nil {
			t.Fatal(err)
		}
		if err := s.Driver.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Driver.PollIdle(10_000_000); err != nil {
			t.Fatal(err)
		}
		sdc, err := s.Driver.SDCInput()
		if err != nil {
			t.Fatal(err)
		}
		raw := s.Memory.Read(1<<16, 16)
		rec, err := core.UnpackNBTRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		return sdc, rec.Success
	}

	if sdc, success := runOnce(img); sdc != 0 || !success {
		t.Fatalf("clean image: SDCInput=%d success=%v, want 0/true", sdc, success)
	}
	for bit := 0; bit < len(img)*8; bit++ {
		flipped := append([]byte(nil), img...)
		flipped[bit/8] ^= 1 << (bit % 8)
		sdc, success := runOnce(flipped)
		if sdc != 1 {
			t.Fatalf("bit %d (byte %d): flip escaped the ingest witness (SDCInput=%d)", bit, bit/8, sdc)
		}
		if success {
			t.Fatalf("bit %d: corrupted pair still reported success", bit)
		}
	}
}
