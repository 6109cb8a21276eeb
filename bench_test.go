// Package repro's root benchmark suite regenerates every table and figure of
// the paper from the command line:
//
//	go test -bench . -benchmem
//
// Each BenchmarkTable*/BenchmarkFigure* runs the corresponding experiment of
// internal/bench and reports the headline quantities as custom metrics
// (cycles, speedups, GCUPS). The Benchmark{WFA,SoftwareAlign,SWG,Machine,BTDecode}*
// benchmarks measure the underlying engines directly. The full tables are
// printed by cmd/wfasic-bench.
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/bench"
	"repro/internal/bt"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/seqgen"
	"repro/internal/seqio"
	"repro/internal/soc"
	"repro/internal/swg"
	"repro/internal/wfa"
)

func benchParams() bench.Params {
	p := bench.QuickParams()
	p.MaxAligners = 4
	return p
}

// BenchmarkTable1 regenerates Table 1 (per-pair reading and alignment
// cycles, Equation 7 bound) and reports the 10K rows as metrics.
func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.AlignmentCycles), "aligncyc/"+r.Input)
		}
		b.ReportMetric(float64(rows[4].ReadingCycles), "readcyc/10K")
	}
}

// BenchmarkFigure9 regenerates the speedup study of Figure 9.
func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure9(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[5].SpeedupNoBT, "speedupNoBT/10K-10%")
		b.ReportMetric(rows[5].SpeedupBT, "speedupBT/10K-10%")
		b.ReportMetric(rows[0].SpeedupNoBT, "speedupNoBT/100-5%")
		b.ReportMetric(rows[0].SpeedupVector, "vector/100-5%")
	}
}

// BenchmarkFigure10 regenerates the multi-Aligner scalability study.
func BenchmarkFigure10(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure10(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		last := len(rows[5].Speedup) - 1
		b.ReportMetric(rows[5].Speedup[last], fmt.Sprintf("scaling%d/10K-10%%", last+1))
		b.ReportMetric(rows[0].Speedup[last], fmt.Sprintf("scaling%d/100-5%%", last+1))
	}
}

// BenchmarkFigure11 regenerates the configuration comparison.
func BenchmarkFigure11(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure11(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[5].Rel[bench.Fig11OneAligner64NoSep], "noSepGain/10K-10%")
		b.ReportMetric(rows[0].Rel[bench.Fig11TwoAligners32Sep], "2x32PSGain/100-5%")
	}
}

// BenchmarkTable2 regenerates the GCUPS/area comparison.
func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Measured {
				continue
			}
			label := "BT"
			if strings.Contains(r.Platform, "Without") {
				label = "NoBT"
			}
			b.ReportMetric(r.GCUPS, "GCUPS/"+label)
			b.ReportMetric(r.GCUPSPerMM2, "GCUPSmm2/"+label)
		}
	}
}

// --- engine micro-benchmarks ---

var microSets = []struct {
	name   string
	length int
	rate   float64
}{
	{"100-5%", 100, 0.05},
	{"1K-5%", 1000, 0.05},
	{"1K-10%", 1000, 0.10},
	{"10K-5%", 10000, 0.05},
}

func microPair(length int, rate float64) seqio.Pair {
	g := seqgen.New(uint64(length), uint64(rate*1000))
	return g.Pair(1, length, rate)
}

// BenchmarkWFAScore measures the software WFA in score-only (ring buffer)
// mode.
func BenchmarkWFAScore(b *testing.B) {
	b.ReportAllocs()
	for _, s := range microSets {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			p := microPair(s.length, s.rate)
			b.SetBytes(int64(len(p.A) + len(p.B)))
			for i := 0; i < b.N; i++ {
				res, _, _ := wfa.Align(p.A, p.B, align.DefaultPenalties, wfa.Options{})
				if !res.Success {
					b.Fatal("alignment failed")
				}
			}
		})
	}
}

// BenchmarkWFABacktrace measures the software WFA with full CIGAR recovery.
func BenchmarkWFABacktrace(b *testing.B) {
	b.ReportAllocs()
	for _, s := range microSets {
		if s.length > 1000 {
			continue // full wavefront retention is O(s^2) memory
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			p := microPair(s.length, s.rate)
			for i := 0; i < b.N; i++ {
				res, _, _ := wfa.Align(p.A, p.B, align.DefaultPenalties, wfa.Options{WithCIGAR: true})
				if len(res.CIGAR) == 0 {
					b.Fatal("no CIGAR")
				}
			}
		})
	}
}

// BenchmarkSoftwareAlign measures the per-pair software tier on the chip
// configuration, one-shot (soc.SoftwareAlign builds a fresh aligner every
// pair) against reused (one soc.SoftwareAligner across pairs, as the serve
// software workers and each SoC's fallback run it), score-only and with
// CIGAR.
func BenchmarkSoftwareAlign(b *testing.B) {
	cfg := core.ChipConfig()
	for _, s := range microSets[:2] {
		p := microPair(s.length, s.rate)
		for _, withCIGAR := range []bool{false, true} {
			mode := "score"
			if withCIGAR {
				mode = "cigar"
			}
			b.Run(s.name+"/"+mode+"/one-shot", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res, _ := soc.SoftwareAlign(cfg, p, withCIGAR); !res.Success {
						b.Fatal("alignment failed")
					}
				}
			})
			b.Run(s.name+"/"+mode+"/reused", func(b *testing.B) {
				b.ReportAllocs()
				sa := soc.NewSoftwareAligner(cfg)
				for i := 0; i < b.N; i++ {
					if res, _ := sa.Align(p, withCIGAR); !res.Success {
						b.Fatal("alignment failed")
					}
				}
			})
		}
	}
}

// BenchmarkSWGScore measures the full-DP baseline (Equation 2).
func BenchmarkSWGScore(b *testing.B) {
	b.ReportAllocs()
	for _, s := range microSets {
		if s.length > 1000 {
			continue // O(n*m) cells
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			p := microPair(s.length, s.rate)
			for i := 0; i < b.N; i++ {
				swg.Score(p.A, p.B, align.DefaultPenalties)
			}
		})
	}
}

// BenchmarkMachineAlign measures the cycle-level accelerator simulation
// end-to-end for one pair (image build, DMA, extract, align, collect). The
// cold rows build a fresh SoC per op, so they time construction as well;
// the warm rows reuse one SoC after a warm-up run, as a served device does,
// and their allocs/op is what the simulator's steady state allocates.
func BenchmarkMachineAlign(b *testing.B) {
	b.ReportAllocs()
	cfg := core.ChipConfig()
	for _, s := range microSets {
		p := microPair(s.length, s.rate)
		if len(p.A) > cfg.MaxReadLenCap {
			p.A = p.A[:cfg.MaxReadLenCap]
		}
		if len(p.B) > cfg.MaxReadLenCap {
			p.B = p.B[:cfg.MaxReadLenCap]
		}
		set := &seqio.InputSet{Pairs: []seqio.Pair{p}}
		run := func(b *testing.B, system *soc.SoC) int64 {
			rep, err := system.RunAccelerated(set, soc.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return rep.AccelCycles
		}
		newSoC := func(b *testing.B) *soc.SoC {
			system, err := soc.New(cfg, 32<<20)
			if err != nil {
				b.Fatal(err)
			}
			return system
		}
		b.Run(s.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = run(b, newSoC(b))
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
		b.Run(s.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			system := newSoC(b)
			cycles := run(b, system) // grows every retained buffer once
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycles = run(b, system)
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkBTDecode measures the CPU-side backtrace decoder on a
// pre-generated stream.
func BenchmarkBTDecode(b *testing.B) {
	b.ReportAllocs()
	cfg := core.ChipConfig()
	p := microPair(1000, 0.10)
	set := &seqio.InputSet{Pairs: []seqio.Pair{p}}
	system, err := soc.New(cfg, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	img, err := set.BuildImage()
	if err != nil {
		b.Fatal(err)
	}
	system.Memory.Write(0x1000, img)
	out := uint64(0x1000+len(img)+15) &^ 15
	if err := system.Driver.Configure(soc.JobConfig{
		InputAddr: 0x1000, OutputAddr: out,
		NumPairs: 1, MaxReadLen: set.EffectiveMaxReadLen(), Backtrace: true,
	}); err != nil {
		b.Fatal(err)
	}
	if err := system.Driver.Start(); err != nil {
		b.Fatal(err)
	}
	if _, err := system.Driver.PollIdle(1 << 40); err != nil {
		b.Fatal(err)
	}
	count, _ := system.Driver.OutCount()
	raw := system.Memory.Read(int64(out), count*mem.BeatBytes)
	pairs := map[uint32]seqio.Pair{p.ID: p}
	dec := bt.NewDecoder(cfg)
	b.ResetTimer()
	for _, sep := range []bool{false, true} {
		name := "noSep"
		if sep {
			name = "sep"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if _, _, err := dec.DecodeRegion(raw, count, pairs, sep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtendUnit measures the shared Extend comparator both tiers call
// (16 packed bases per block, Figure 7) on one 10 kbp maximal extension.
func BenchmarkExtendUnit(b *testing.B) {
	b.ReportAllocs()
	g := seqgen.New(3, 3)
	seq := g.RandomSequence(10000)
	words, err := seqio.PackSequence(seq) // compared with itself: maximal extension
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(seq)))
	for i := 0; i < b.N; i++ {
		if wfa.Extend(words, words, len(seq), len(seq), 0, 0) != len(seq) {
			b.Fatal("extension did not reach the end")
		}
	}
}

// BenchmarkImageBuild measures input-image serialization (the CPU's parse
// step of Figure 4).
func BenchmarkImageBuild(b *testing.B) {
	b.ReportAllocs()
	g := seqgen.New(5, 5)
	set := &seqio.InputSet{}
	for i := 0; i < 32; i++ {
		set.Pairs = append(set.Pairs, g.Pair(uint32(i), 1000, 0.05))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := set.BuildImage()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(img)))
	}
}
