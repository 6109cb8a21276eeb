// Command wfasic-bench regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulator:
//
//	wfasic-bench -exp all            # everything (default)
//	wfasic-bench -exp table1        # Table 1: reading/alignment cycles
//	wfasic-bench -exp fig9          # Figure 9: speedups over the CPU scalar code
//	wfasic-bench -exp fig10         # Figure 10: multi-Aligner scalability
//	wfasic-bench -exp fig11         # Figure 11: configuration comparison
//	wfasic-bench -exp table2        # Table 2: GCUPS and area
//	wfasic-bench -exp asic          # Section 5.2 physical summary
//	wfasic-bench -exp host          # end-to-end host throughput
//	wfasic-bench -exp heuristics    # score-estimate heuristic accuracy
//	wfasic-bench -exp ablations     # design-parameter ablations
//	wfasic-bench -exp perf          # cycle attribution (hardware perf counters)
//	wfasic-bench -exp fleet         # fleet scaling (determinism across worker counts)
//
// -pairs scales the number of synthetic pairs per input set; -quick selects
// a minimal smoke-test configuration. The perf experiment additionally
// writes machine-readable artifacts: -perf-json emits the counter windows
// as JSON (the BENCH_*.json format) and -trace-chrome emits a Chrome
// trace_event timeline (open in chrome://tracing or Perfetto) for the
// profile chosen by -trace-profile. The fleet experiment sweeps fleet worker
// counts up to -fleet (asserting an identical result digest at every count)
// and writes its deterministic artifact (the BENCH_10.json format) to
// -fleet-json.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig9, fig10, fig11, table2, asic, host, heuristics, ablations, perf, fleet, all")
	pairs := flag.Int("pairs", 0, "pairs per input set (0 = default)")
	maxAligners := flag.Int("aligners", 0, "Figure 10 sweep bound (0 = default)")
	quick := flag.Bool("quick", false, "minimal smoke-test scale")
	perfJSON := flag.String("perf-json", "", "write the perf counter windows to this file (BENCH_*.json format)")
	traceChrome := flag.String("trace-chrome", "", "write a Chrome trace_event timeline to this file")
	traceProfile := flag.String("trace-profile", "1K-10%", "input profile the -trace-chrome timeline covers")
	fleetWorkers := flag.Int("fleet", 8, "fleet experiment: maximum worker count of the scaling sweep")
	fleetJSON := flag.String("fleet-json", "", "write the fleet experiment's deterministic artifact to this file (BENCH_10.json format)")
	flag.Parse()

	params := bench.DefaultParams()
	if *quick {
		params = bench.QuickParams()
	}
	if *pairs > 0 {
		params.PairsPerSet = *pairs
	}
	if *maxAligners > 0 {
		params.MaxAligners = *maxAligners
	}

	want := func(name string) bool {
		return *exp == "all" || strings.EqualFold(*exp, name)
	}
	ran := false
	run := func(name string, f func() error) {
		if !want(name) {
			return
		}
		ran = true
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "wfasic-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error {
		rows, err := bench.Table1(params)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderTable1(rows))
		return nil
	})
	run("fig9", func() error {
		rows, err := bench.Figure9(params)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFigure9(rows))
		return nil
	})
	run("fig10", func() error {
		rows, err := bench.Figure10(params)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFigure10(rows))
		return nil
	})
	run("fig11", func() error {
		rows, err := bench.Figure11(params)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFigure11(rows))
		return nil
	})
	run("table2", func() error {
		rows, err := bench.Table2(params)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderTable2(rows))
		return nil
	})
	run("asic", func() error {
		fmt.Print(bench.PhysicalSummary())
		return nil
	})
	run("host", func() error {
		rows, err := bench.HostThroughput(params)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderHostThroughput(rows))
		return nil
	})
	run("heuristics", func() error {
		rows, err := bench.HeuristicAccuracy(params)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderHeuristicAccuracy(rows))
		return nil
	})
	run("ablations", func() error {
		ps, err := bench.ParallelSectionsAblation(params, "1K-10%")
		if err != nil {
			return err
		}
		km, err := bench.KMaxAblation(params)
		if err != nil {
			return err
		}
		bw, err := bench.BandwidthAblation(params)
		if err != nil {
			return err
		}
		algo, err := bench.AlgorithmComparison()
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderAblations(ps, km, bw, algo))
		dist, err := bench.ErrorDistributionAblation(params)
		if err != nil {
			return err
		}
		fmt.Print("\n" + bench.RenderDistribution(dist))
		return nil
	})
	run("perf", func() error {
		rows, err := bench.PerfAttribution(params)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderPerfAttribution(rows))
		if *perfJSON != "" {
			if err := writeFile(*perfJSON, func(w io.Writer) error {
				return bench.WritePerfJSON(rows, w)
			}); err != nil {
				return err
			}
			fmt.Printf("\nperf counters written to %s\n", *perfJSON)
		}
		if *traceChrome != "" {
			tr, err := bench.TraceForProfile(rows, *traceProfile)
			if err != nil {
				return err
			}
			if err := writeFile(*traceChrome, tr.WriteChrome); err != nil {
				return err
			}
			fmt.Printf("Chrome trace written to %s (open in chrome://tracing or Perfetto)\n", *traceChrome)
		}
		return nil
	})
	run("fleet", func() error {
		scale, err := bench.FleetScaling(params, *fleetWorkers)
		if err != nil {
			return err
		}
		fmt.Print(bench.RenderFleetScaling(scale))
		if *fleetJSON != "" {
			if err := writeFile(*fleetJSON, func(w io.Writer) error {
				return bench.WriteFleetJSON(scale, w)
			}); err != nil {
				return err
			}
			fmt.Printf("\nfleet artifact written to %s\n", *fleetJSON)
		}
		return nil
	})
	if !ran {
		fmt.Fprintf(os.Stderr, "wfasic-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// writeFile creates path and streams f into it, surfacing the first error.
func writeFile(path string, f func(w io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
