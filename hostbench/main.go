// Command hostbench is the host-plane benchmark of the WFAsic reproduction.
// It measures, in host seconds and bytes, what a wfasic-serve client sees and
// what a simulator user waits for. A traced run (-trace 1) attributes that
// time to the layers underneath by timing calls into each package's public
// functions from outside: serve.Server.Submit, soc.SoC.RunResilient,
// seqio.InputSet.BuildImage and seqio.AuditImage, the soc.Driver
// Configure/Start/PollIdle sequence (core.Machine.Run),
// bt.Decoder.DecodeRegion, integrity.Bounds and integrity.CheckCIGAR, and
// soc.SoftwareAlign (the software WFA).
//
// Run it from the root of a checkout:
//
//	bash hostbench/run.sh --workload serve-short --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	serve-short  open-loop 32-pair score-only requests over loopback HTTP to a real serve.Server
//	serve-bt     the same requests asking for CIGARs
//	device-long  closed-loop 10K-base batches through soc.RunResilient on a soc.NewFleet
//	verify-bt    closed-loop 1K-base backtrace batches under integrity.ModeFull
//
// BENCHMARK.json lists the two serve workloads. The closed-loop ones run by
// hand: on a shared virtual machine their rates wander with the load other
// guests put on the host by more than a benchmark bound allows.
//
// Every answer is checked against soc.SoftwareAlign. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics untraced, the per-layer metrics
// traced. Earlier lines carry the host metadata, the answer digest, the
// queueing model's predictions and, in traced runs, the top functions of the
// CPU profile. A wrong answer makes the command exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"

	"repro/internal/align"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the untraced metrics; every workload reports all of them.
// The serve workloads report their open-loop knee as max_rate_pps, the
// closed-loop rate of their client connections as pairs_per_s, and request
// latency at their low and high offered rates. The closed-loop workloads have no open-loop
// knee: they report their fleet rate on their own batches as pairs_per_s,
// the better rate of their batch and of a double batch as max_rate_pps, and
// the CPU time per batch of the two shapes as their low and high latency.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"max_rate_pps", "pairs/s"},
	{"pairs_per_s", "pairs/s"},
	{"mean_ms.low", "ms"},
	{"p99_ms.low", "ms"},
	{"mean_ms.high", "ms"},
	{"p99_ms.high", "ms"},
	{"ok_frac", "ratio"},
	{"alloc_kib_per_pair", "KiB"},
	{"peak_heap_mib", "MiB"},
}

// perLayer are the traced metrics. Each layer probe runs on the workload's
// own batch shape; a layer the workload bypasses (bt decode on a score-only
// workload, the serve tier on an offline batch) is probed on the same pairs
// in that layer's own mode, so every row is a measurement.
var perLayer = []metricSpec{
	{"serve.http_us_per_req", "us"},
	{"serve.submit_p50_us", "us"},
	{"serve.batch_fill", "ratio"},
	{"serve.hw_share", "ratio"},
	{"serve.in_system_p99", "pairs"},
	{"serve.respills", "pairs"},
	{"serve.shed_pairs", "pairs"},
	{"serve.deadline_pairs", "pairs"},
	{"fail_frac", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"soc.resilient_us_per_pair", "us"},
	{"soc.residual_us_per_pair", "us"},
	{"soc.zero_us_per_batch", "us"},
	{"soc.attempts_per_batch", "count"},
	{"soc.alloc_kib_per_batch", "KiB"},
	{"seqio.build_image_us_per_pair", "us"},
	{"seqio.audit_us_per_pair", "us"},
	{"core.run_us_per_pair", "us"},
	{"core.cycles_per_host_s", "cycles/s"},
	{"core.ns_per_executed_tick", "ns"},
	{"core.sim_cycles", "cycles"},
	{"core.executed_ticks", "count"},
	{"bt.decode_us_per_pair", "us"},
	{"bt.output_bytes_per_pair", "bytes"},
	{"integrity.replay_us_per_pair", "us"},
	{"integrity.bounds_ns_per_pair", "ns"},
	{"wfa.score_us_per_pair", "us"},
	{"wfa.cigar_us_per_pair", "us"},
	{"wfa.alloc_bytes_per_pair", "bytes"},
	{"wfa.wavefront_bytes_per_pair", "bytes"},
	{"trace.overhead_frac", "ratio"},
}

// deviceMem is every simulated device's main memory: serve's default, and
// the same size for the offline fleets so the two paths zero the same bytes
// per attempt.
const deviceMem = 8 << 20

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	log      io.Writer // human-readable lines; the JSON result is printed after them

	// small shrinks inputs and phases to a smoke-test scale.
	small bool
	// corrupt, when set, tampers with answers before the correctness gate
	// sees them (the benchmark's own tests prove the gate fires).
	corrupt func(input int, r *align.Result)
}

// report is what a workload hands back: its metric values and its gate.
type report struct {
	metrics map[string]float64
	gate    *gate
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*report, error){
	"serve-short": func(rc runConfig) (*report, error) { return runServe(rc, false) },
	"serve-bt":    func(rc runConfig) (*report, error) { return runServe(rc, true) },
	"device-long": func(rc runConfig) (*report, error) { return runDevice(rc, deviceLong) },
	"verify-bt":   func(rc runConfig) (*report, error) { return runDevice(rc, verifyBT) },
}

func main() {
	var rc runConfig
	flag.StringVar(&rc.workload, "workload", "", "serve-short | device-long | verify-bt")
	flag.Uint64Var(&rc.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics and writes CPU and alloc profiles")
	flag.StringVar(&rc.outDir, "out", ".bench_build", "directory for profiles")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hostbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	rc.seconds = float64(*seconds)
	rc.trace = *trace == 1
	rc.log = os.Stdout

	res, err := execute(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "hostbench: %d of %d answers failed the correctness gate\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// execute runs one workload and assembles the result line.
func execute(rc runConfig) (*result, error) {
	run, ok := workloads[rc.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", rc.workload, names)
	}
	if err := printHost(rc); err != nil {
		return nil, err
	}
	rep, err := run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rc.workload, err)
	}
	fmt.Fprintf(rc.log, "digest %s %s\n", rc.workload, rep.gate.digest())

	attempted, failed := rep.gate.counts()
	if attempted == 0 {
		return nil, fmt.Errorf("%s: no answer was checked", rc.workload)
	}
	specs := endToEnd
	if rc.trace {
		specs = perLayer
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", rc.workload, s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", rc.workload, s.name, v)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return res, nil
}

// hostInfo is the metadata recorded with every result.
type hostInfo struct {
	GOMAXPROCS     int    `json:"gomaxprocs"`
	NumCPU         int    `json:"nproc"`
	GOARCH         string `json:"goarch"`
	GoVersion      string `json:"go_version"`
	DeviceMemBytes int    `json:"device_mem_bytes"`
	FleetMembers   int    `json:"fleet_members"`
	ClientConns    int    `json:"client_conns"`
	Note           string `json:"note"`
}

func printHost(rc runConfig) error {
	h := hostInfo{
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		GOARCH:         runtime.GOARCH,
		GoVersion:      runtime.Version(),
		DeviceMemBytes: deviceMem,
		FleetMembers:   fleetSize(),
		ClientConns:    fleetSize(),
		Note:           "nproc is the CPUs this process may use (run.sh pins it to one); fleet members and client connections equal nproc, and scaling beyond nproc is unmeasured",
	}
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(rc.log, "host %s\n", b)
	return nil
}

// fleetSize is the number of fleet members and client connections: one per
// CPU, so the benchmark never measures oversubscription.
func fleetSize() int {
	return runtime.NumCPU()
}
