package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"sync"
	"testing"

	"repro/internal/align"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeRun is one tiny-scale run and its human-readable output.
type smokeRun struct {
	res *result
	out string
}

var (
	smokeMu   sync.Mutex
	smokeRuns = map[string]smokeRun{}
)

// tinyRun runs a workload at smoke-test scale; runs are shared between tests.
func tinyRun(t *testing.T, workload string, trace bool) smokeRun {
	t.Helper()
	key := fmt.Sprintf("%s trace=%v", workload, trace)
	smokeMu.Lock()
	defer smokeMu.Unlock()
	if r, ok := smokeRuns[key]; ok {
		return r
	}
	res, out, err := runSmall(t, workload, trace, nil)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	r := smokeRun{res: res, out: out}
	smokeRuns[key] = r
	return r
}

func runSmall(t *testing.T, workload string, trace bool, corrupt func(int, *align.Result)) (*result, string, error) {
	var out bytes.Buffer
	rc := runConfig{
		workload: workload,
		seed:     7,
		seconds:  2,
		trace:    trace,
		outDir:   t.TempDir(),
		log:      &out,
		small:    true,
		corrupt:  corrupt,
	}
	res, err := execute(rc)
	return res, out.String(), err
}

// harnessWorkloads are every workload the harness runs, sorted: the ones
// BENCHMARK.json names plus device-long and verify-bt, which are run by
// hand.
func harnessWorkloads() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestHarnessMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the harness %v", w.Name, harnessWorkloads())
		}
	}
	for _, c := range []struct {
		kind string
		json []specMetric
		code []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", c.kind, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", c.kind, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestSmokeEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range harnessWorkloads() {
		for _, trace := range []bool{false, true} {
			r := tinyRun(t, name, trace)
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, r.res.Correct, r.res.Failed, r.res.Attempted)
			}
			if len(r.res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(r.res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if _, err := json.Marshal(r.res); err != nil {
				t.Errorf("%s trace=%v: result does not encode: %v", name, trace, err)
			}
		}
	}
}

func TestCorruptedAnswerFailsGate(t *testing.T) {
	wrongScore := func(input int, r *align.Result) {
		if input == 3 {
			r.Score++
		}
	}
	// One extra match at the end keeps the score but no longer replays
	// over the pair, so only the gate's CIGAR replay can catch it.
	wrongCIGAR := func(input int, r *align.Result) {
		if input == 3 && r.Success {
			r.CIGAR = append(r.CIGAR[:len(r.CIGAR):len(r.CIGAR)], align.OpMatch)
		}
	}
	type corruption struct {
		workload, name string
		corrupt        func(int, *align.Result)
	}
	// Every workload that asks for CIGARs, listed in BENCHMARK.json or not.
	cases := []corruption{{"serve-bt", "cigar", wrongCIGAR}, {"verify-bt", "cigar", wrongCIGAR}}
	for _, w := range loadSpec(t).Workloads {
		cases = append(cases, corruption{w.Name, "score", wrongScore})
	}
	for _, c := range cases {
		res, _, err := runSmall(t, c.workload, false, c.corrupt)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.workload, c.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s/%s: a corrupted answer passed the gate (correct=%v failed=%d)", c.workload, c.name, res.Correct, res.Failed)
		}
		if ok := res.Metrics["ok_frac"].Value; ok >= 1 {
			t.Errorf("%s/%s: ok_frac %v despite a wrong answer", c.workload, c.name, ok)
		}
	}
}

var digestLine = regexp.MustCompile(`(?m)^digest (\S+) ([0-9a-f]{64})$`)

func TestTracedAndUntracedDigestsMatch(t *testing.T) {
	for _, name := range harnessWorkloads() {
		plain := digestLine.FindStringSubmatch(tinyRun(t, name, false).out)
		traced := digestLine.FindStringSubmatch(tinyRun(t, name, true).out)
		if plain == nil || traced == nil {
			t.Fatalf("%s: no digest line (untraced %v, traced %v)", name, plain != nil, traced != nil)
		}
		if plain[2] != traced[2] {
			t.Errorf("%s: untraced digest %s, traced digest %s", name, plain[2], traced[2])
		}
	}
}
