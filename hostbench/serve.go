package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/seqio"
	"repro/internal/serve"
)

// serve-short traffic: the paper's short-read service mix.
const (
	pairsPerReq   = 32
	serveTenants  = 4
	serveReadLen  = 100
	serveErrRate  = 0.05
	servePoolReqs = 256 // distinct requests; the phases cycle through them

	// Offered rates, fixed against the default service's loopback knee with
	// one client connection on one pinned CPU (about 5K pairs/s): low is
	// under two fifths of it, high about three fifths.
	lowPPS  = 1600.0
	highPPS = 2800.0
	// p99LimitMS is the latency limit max_rate_pps is defined against.
	p99LimitMS = 50.0

	// calibrationSeed is the seed BENCH_8 calibrates serve's model with.
	calibrationSeed = 1

	// serveRounds is how many times an untraced run cycles through a
	// closed-loop probe of probeReqs requests, a stretch at the high rate
	// and one at the low rate; ladderClimbs is how many times it then climbs
	// the ladder.
	serveRounds  = 8
	probeReqs    = 48
	ladderClimbs = 3
)

// ladderShares place the rungs that look for the knee, as shares of the
// closed-loop rate measured in the same run, so the ladder follows the
// server when it gets faster or slower.
var ladderShares = []float64{0.7, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5}

// serveDefaults are serve.Config's documented zero-value defaults that a
// running server does not report: the largest device job the batcher
// assembles, the software tier's workers, the batch delay and the queue
// bound. serve does not export them, so they are copied here;
// serveCounters fails the run when the batches it sees are fuller than
// batchPairs allows.
var serveDefaults = struct {
	batchPairs, softwareWorkers, queueLimit int
	batchDelay                              time.Duration
}{batchPairs: 64, softwareWorkers: 2, queueLimit: 4096, batchDelay: 2 * time.Millisecond}

// serveRig is a real serve.Server (default config) on a loopback listener,
// plus the HTTP client that drives it.
type serveRig struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	url    string
	tr     *http.Transport
	client *http.Client
}

// newServeRig starts the server and returns once the first request can be
// sent: one /healthz round trip has succeeded.
func newServeRig(conns int) (*serveRig, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	r := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		tr:     &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	r.client = &http.Client{Transport: r.tr, Timeout: time.Minute}
	go func() {
		defer close(r.served)
		// Serve returns http.ErrServerClosed once close shuts it down.
		_ = r.hs.Serve(ln)
	}()
	resp, err := r.client.Get(r.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz returned %d", resp.StatusCode)
		}
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return r, nil
}

// close drains the service (every admitted pair is answered), stops the
// listener and returns the final counters.
func (r *serveRig) close() *serve.Metrics {
	m := r.srv.Drain()
	r.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		// Graceful shutdown timed out; drop the remaining connections.
		_ = r.hs.Close()
	}
	<-r.served
	return m
}

// request is one /align call. Its pair IDs are gate input numbers, so every
// answer maps back to its expected value.
type request struct {
	tenant string
	pairs  []seqio.Pair
	body   []byte
}

func newRequest(tenant string, pairs []seqio.Pair, backtrace bool) (*request, error) {
	ar := serve.AlignRequest{Tenant: tenant, Backtrace: backtrace, Pairs: make([]serve.AlignPair, len(pairs))}
	for i, p := range pairs {
		ar.Pairs[i] = serve.AlignPair{ID: p.ID, A: string(p.A), B: string(p.B)}
	}
	body, err := json.Marshal(ar)
	if err != nil {
		return nil, err
	}
	return &request{tenant: tenant, pairs: pairs, body: body}, nil
}

// post sends one request over HTTP and checks every answer; it reports
// whether all of them came back right.
func (r *serveRig) post(q *request, g *gate) bool {
	resp, err := r.client.Post(r.url+"/align", "application/json", bytes.NewReader(q.body))
	if err != nil {
		g.miss(len(q.pairs))
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out serve.AlignResponse
	if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
		g.miss(len(q.pairs))
		return false
	}
	return g.checkServe(q.pairs, out.Results)
}

// phase is what one load phase observed.
type phase struct {
	lat     []float64     // ms per request: from its due time (open loop), its start (closed-loop HTTP) or its CPU cost (closed-loop batch)
	late    []float64     // ms a request started after it was due (or after its sender freed up)
	failed  int           // requests with any missing or wrong answer
	pairs   int           // pairs answered correctly
	elapsed time.Duration // phase wall time
	rate    float64       // pairs answered per second
}

// serveBench is the serve-short workload's state.
type serveBench struct {
	rc        runConfig
	rig       *serveRig
	reqs      []*request
	backtrace bool // the requests ask for CIGARs
	gate      *gate
	conns     int
	cursor    int // next pool request; phases continue where the last one stopped
}

// openLoop offers rate pairs/s for dur as evenly spaced requests from
// b.conns connections. Latency runs from each request's due time, so a
// stalled sender charges its wait to every request queued behind it.
func (b *serveBench) openLoop(rate float64, dur time.Duration) phase {
	interval := time.Duration(float64(time.Second) * pairsPerReq / rate)
	n := int(dur / interval)
	if n < 1 {
		n = 1
	}
	ph := phase{lat: make([]float64, n), late: make([]float64, n)}
	base := b.cursor
	b.cursor += n
	var next, failed, pairs atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				q := b.reqs[(base+i)%len(b.reqs)]
				if b.rig.post(q, b.gate) {
					pairs.Add(int64(len(q.pairs)))
				} else {
					failed.Add(1)
				}
				ph.lat[i] = millis(time.Since(due))
				ph.late[i] = millis(sent.Sub(due))
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.failed = int(failed.Load())
	ph.pairs = int(pairs.Load())
	ph.rate = float64(ph.pairs) / ph.elapsed.Seconds()
	return ph
}

// closedLoop sends the next n pool requests closed loop: each connection
// sends its next request as soon as its last one is answered. Every
// connection is busy all the time, so the rate is the connections over the
// mean request latency.
func (b *serveBench) closedLoop(n int) phase {
	ph := phase{lat: make([]float64, n)}
	base := b.cursor
	b.cursor += n
	var next, failed, pairs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				q := b.reqs[(base+i)%len(b.reqs)]
				t0 := time.Now()
				if b.rig.post(q, b.gate) {
					pairs.Add(int64(len(q.pairs)))
				} else {
					failed.Add(1)
				}
				ph.lat[i] = millis(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.failed = int(failed.Load())
	ph.pairs = int(pairs.Load())
	ph.rate = float64(b.conns*pairsPerReq) / (mean(ph.lat) / 1000)
	return ph
}

// runServe is an open-loop short-read service workload: score-only
// requests (serve-short) or requests for CIGARs (serve-bt).
func runServe(rc runConfig, backtrace bool) (*report, error) {
	cfg := core.ChipConfig()
	poolReqs := servePoolReqs
	if rc.small {
		poolReqs = 16
	}
	w := serve.NewWorkload(rc.seed, serveTenants, poolReqs/serveTenants*pairsPerReq, serveReadLen, serveErrRate)
	pairs := make([]seqio.Pair, 0, poolReqs*pairsPerReq)
	var groups [][]seqio.Pair
	for k := 0; k < poolReqs; k++ {
		chunk := w.Tenants[k%serveTenants].Pairs[k/serveTenants*pairsPerReq:][:pairsPerReq]
		base := len(pairs)
		for i, p := range chunk {
			pairs = append(pairs, seqio.Pair{ID: uint32(base + i), A: p.A, B: p.B})
		}
		groups = append(groups, pairs[base:])
	}
	b := &serveBench{rc: rc, conns: fleetSize(), backtrace: backtrace, gate: newGate(cfg, pairs, backtrace, rc.corrupt)}
	for k, ps := range groups {
		q, err := newRequest(w.Tenants[k%serveTenants].Name, ps, backtrace)
		if err != nil {
			return nil, err
		}
		b.reqs = append(b.reqs, q)
	}

	m := map[string]float64{}
	rig, setup, err := medianSetup(setupReps(rc), func() (*serveRig, error) { return newServeRig(b.conns) },
		func(r *serveRig) { r.close() })
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup
	b.rig = rig
	// Warm up on the whole pool, untimed: caches fill, the heap grows, and
	// the answers cover every input for the digest.
	b.closedLoop(len(b.reqs))
	// Settle, untimed, at the high rate: the heap and GC pacing reach their
	// loaded state before timing.
	b.openLoop(highPPS, span(rc, 0.05))
	if rc.trace {
		err = b.traced(m)
	} else {
		b.untraced(m)
	}
	devices := len(rig.srv.DeviceStates())
	final := rig.close()
	if err != nil {
		return nil, err
	}
	if err := checkIdentity(rc, final); err != nil {
		return nil, err
	}
	m["ok_frac"] = 1 - b.gate.failFrac()
	m["fail_frac"] = b.gate.failFrac()
	if !rc.trace {
		printModel(rc, m, devices)
		return &report{metrics: m, gate: b.gate}, nil
	}
	// One device job of serve's batch shape: BatchPairs pool pairs.
	shape := layerShape{backtrace: backtrace, reps: layerReps(rc)}
	for i, p := range pairs[:min(serveDefaults.batchPairs, len(pairs))] {
		shape.pairs = append(shape.pairs, seqio.Pair{ID: uint32(i + 1), A: p.A, B: p.B})
	}
	return &report{metrics: m, gate: b.gate}, probeLayers(cfg, shape, m)
}

// untraced measures the end-to-end metrics. It cycles serveRounds times
// through a short closed-loop probe of the client's connections, a stretch
// at the high offered rate and one at the low rate; each figure is taken
// from the faster rounds (see fastQuantile). It then climbs a ladder of
// rates placed around the closed-loop rate ladderClimbs times, whatever
// their latency, so a run always takes about the same time, and reports the
// median knee of the climbs.
//
// With one connection the server answers one request at a time, and the two
// tiers take turns at them: about half the requests take the software
// tier's time and half the device tier's. The median of such a sample sits
// on the gap between the two and jumps across it from run to run, so the
// typical latency is reported as a mean.
func (b *serveBench) untraced(m map[string]float64) {
	runtime.GC()
	a0 := allocBytes()
	heap := startHeapSampler()
	var probes, highs, lows []phase
	for r := 0; r < serveRounds; r++ {
		probes = append(probes, b.closedLoop(probeReqs))
		highs = append(highs, b.openLoop(highPPS, span(b.rc, 0.036)))
		lows = append(lows, b.openLoop(lowPPS, span(b.rc, 0.036)))
	}
	closedRate := fastRounds(probes, func(ph phase) float64 { return ph.rate }, true)
	var knees []float64
	rungs := []phase{}
	for c := 0; c < ladderClimbs; c++ {
		var rates, p99s []float64
		var fails []int
		for _, share := range ladderShares {
			r := share * closedRate
			ph := b.openLoop(r, span(b.rc, 0.016))
			rungs = append(rungs, ph)
			rates = append(rates, r)
			p99s = append(p99s, p99(ph.lat))
			fails = append(fails, ph.failed)
		}
		knees = append(knees, kneeRate(rates, p99s, fails, p99LimitMS))
		for i, r := range rates {
			fmt.Fprintf(b.rc.log, "rung climb=%d offered=%.0f pairs/s (%.2f x closed loop) p99=%.3f ms failed_requests=%d\n",
				c, r, ladderShares[i], p99s[i], fails[i])
		}
		if top := len(rates) - 1; p99s[top] <= p99LimitMS && fails[top] == 0 {
			fmt.Fprintf(b.rc.log, "knee not reached: every rung met the %g ms limit, so max_rate_pps is a lower bound\n", p99LimitMS)
		}
	}
	m["peak_heap_mib"] = heap.finish()
	answered := 0
	for _, phs := range [][]phase{probes, highs, lows, rungs} {
		for _, ph := range phs {
			answered += ph.pairs
		}
	}
	m["alloc_kib_per_pair"] = float64(allocBytes()-a0) / 1024 / float64(max(answered, 1))
	meanLat := func(ph phase) float64 { return mean(ph.lat) }
	p99Lat := func(ph phase) float64 { return p99(ph.lat) }
	m["mean_ms.low"] = fastRounds(lows, meanLat, false)
	m["p99_ms.low"] = fastRounds(lows, p99Lat, false)
	m["mean_ms.high"] = fastRounds(highs, meanLat, false)
	m["p99_ms.high"] = fastRounds(highs, p99Lat, false)
	m["pairs_per_s"] = closedRate
	m["max_rate_pps"] = median(knees)
	fmt.Fprintf(b.rc.log, "closed loop on %d connections, pairs/s by round:", b.conns)
	for _, ph := range probes {
		fmt.Fprintf(b.rc.log, " %.4g", ph.rate)
	}
	fmt.Fprintf(b.rc.log, "\nknees pairs/s: %.4g\n", knees)
	fmt.Fprintf(b.rc.log, "samples per round low=%d high=%d requests\n", len(lows[0].lat), len(highs[0].lat))
}

// kneeRate is the offered rate, within ascending rates, at which p99 latency
// crosses limit. A rate with a failed request misses outright. A single
// rate's spike is smoothed away by a running median of three, and the curve
// is made monotone (once a rate misses, every higher one does); the crossing
// is interpolated between the two rates around it, or extrapolated below
// the first. When every rate meets the limit, the highest one is returned:
// a lower bound, which the run's log flags.
func kneeRate(rates, p99s []float64, failed []int, limit float64) float64 {
	n := len(rates)
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = p99s[i]
		if failed[i] > 0 {
			raw[i] = math.Inf(1)
		}
	}
	curve := append([]float64(nil), raw...)
	for i := 1; i < n-1; i++ {
		curve[i] = median([]float64{raw[i-1], raw[i], raw[i+1]})
	}
	for i := 1; i < n; i++ {
		curve[i] = max(curve[i], curve[i-1])
	}
	for k := range curve {
		if curve[k] <= limit {
			continue
		}
		switch {
		case k == 0:
			return rates[0] * limit / curve[0]
		case math.IsInf(curve[k], 1):
			return rates[k-1]
		}
		f := (limit - curve[k-1]) / (curve[k] - curve[k-1])
		return rates[k-1] + f*(rates[k]-rates[k-1])
	}
	return rates[n-1]
}

// traced measures the serve layer: the high rate once untraced and once
// under the CPU profiler (their difference is the tracing overhead), the
// in-system depth, the HTTP cost of a request, and the service counters.
func (b *serveBench) traced(m map[string]float64) error {
	sample := sampleInSystem(b.rig.srv.Handler())
	plain := b.openLoop(highPPS, span(b.rc, 0.25))
	m["serve.in_system_p99"] = quantile(sample(), 0.99)
	m["loadgen.late_p99_ms"] = quantile(plain.late, 0.99)

	prof, err := startCPUProfile(b.rc)
	if err != nil {
		return err
	}
	profiled := b.openLoop(highPPS, span(b.rc, 0.25))
	if err := prof.stop(); err != nil {
		return err
	}
	m["trace.overhead_frac"] = (mean(profiled.lat) - mean(plain.lat)) / mean(plain.lat)

	// Full-batch requests (two pool requests of one tenant) flush on size,
	// so no batch-delay wait blurs the comparison.
	var full []*request
	for k := 0; k+serveTenants < len(b.reqs); k += 2 * serveTenants {
		for t := k; t < k+serveTenants; t++ {
			pairs := append(append([]seqio.Pair(nil), b.reqs[t].pairs...), b.reqs[t+serveTenants].pairs...)
			q, err := newRequest(b.reqs[t].tenant, pairs, b.backtrace)
			if err != nil {
				return err
			}
			full = append(full, q)
		}
	}
	rounds := 60
	if b.rc.small {
		rounds = 4
	}
	probeServe(b.rig, full, b.backtrace, rounds, b.rc.seed, b.gate, m)
	if err := serveCounters(b.rig.srv.Handler(), m); err != nil {
		return err
	}
	return prof.report(b.rc)
}

// probeServe sends the same requests, one at a time, over loopback HTTP and
// through a direct Server.Submit. Both tiers pull batches from one queue in
// turn, so a strict alternation would lock each path to one tier: the paths
// run in a seeded random order, with unmeasured spacer requests between
// rounds. The HTTP and JSON cost of a request is the difference of the two
// paths' fastest deciles, which the same (fastest) tier answers.
func probeServe(rig *serveRig, reqs []*request, backtrace bool, rounds int, seed uint64, g *gate, m map[string]float64) {
	submit := func(q *request) time.Duration {
		t0 := time.Now()
		res, err := rig.srv.Submit(context.Background(), q.tenant, q.pairs, backtrace)
		d := time.Since(t0)
		if err != nil {
			g.miss(len(q.pairs))
		} else {
			g.checkServe(q.pairs, res)
		}
		return d
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	viaHTTP := make([]float64, 0, rounds)
	viaSubmit := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		q := reqs[i%len(reqs)]
		httpFirst := rng.IntN(2) == 0
		for k := 0; k < 2; k++ {
			if (k == 0) == httpFirst {
				t0 := time.Now()
				rig.post(q, g)
				viaHTTP = append(viaHTTP, micros(time.Since(t0)))
			} else {
				viaSubmit = append(viaSubmit, micros(submit(q)))
			}
		}
		if rng.IntN(2) == 0 {
			submit(q)
		}
	}
	m["serve.http_us_per_req"] = quantile(viaHTTP, 0.1) - quantile(viaSubmit, 0.1)
	m["serve.submit_p50_us"] = median(viaSubmit)
}

// sampleInSystem polls /healthz's in_system_pairs every 5 ms until the
// returned function is called; that function returns the samples.
func sampleInSystem(h http.Handler) func() []float64 {
	stop := make(chan struct{})
	done := make(chan struct{})
	var xs []float64
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var hz struct {
				InSystem int64 `json:"in_system_pairs"`
			}
			if json.Unmarshal(rec.Body.Bytes(), &hz) == nil {
				xs = append(xs, float64(hz.InSystem))
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() []float64 {
		close(stop)
		<-done
		return xs
	}
}

// serveCounters reads the service counters back from /metrics.
func serveCounters(h http.Handler, m map[string]float64) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	c := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			c[strings.TrimPrefix(name, "wfasic_serve_")] = v
		}
	}
	for _, k := range []string{"batches", "hardware_pairs", "fallback_pairs", "deadline_pairs", "respilled_pairs",
		"shed_quota_pairs", "shed_overload_pairs", "shed_draining_pairs"} {
		if _, ok := c[k]; !ok {
			return fmt.Errorf("/metrics has no wfasic_serve_%s", k)
		}
	}
	answered := c["hardware_pairs"] + c["fallback_pairs"]
	if answered == 0 || c["batches"] == 0 {
		return fmt.Errorf("/metrics shows no answered batch")
	}
	fill := answered / (c["batches"] * float64(serveDefaults.batchPairs))
	if fill > 1 {
		return fmt.Errorf("batches hold %.3g pairs on average, more than the %d-pair batch the harness assumes serve's default is",
			fill*float64(serveDefaults.batchPairs), serveDefaults.batchPairs)
	}
	m["serve.batch_fill"] = fill
	m["serve.hw_share"] = c["hardware_pairs"] / answered
	m["serve.respills"] = c["respilled_pairs"]
	m["serve.shed_pairs"] = c["shed_quota_pairs"] + c["shed_overload_pairs"] + c["shed_draining_pairs"]
	m["serve.deadline_pairs"] = c["deadline_pairs"]
	return nil
}

// checkIdentity asserts serve's no-drop accounting once Drain has returned.
func checkIdentity(rc runConfig, m *serve.Metrics) error {
	hw, fb, dl, shed := m.HardwarePairs.Load(), m.FallbackPairs.Load(), m.DeadlinePairs.Load(), m.Shed()
	if hw+fb+dl+shed != m.Submitted.Load() {
		return fmt.Errorf("no-drop identity violated: hardware %d + fallback %d + deadline %d + shed %d != submitted %d",
			hw, fb, dl, shed, m.Submitted.Load())
	}
	fmt.Fprintf(rc.log, "identity hardware=%d fallback=%d deadline=%d shed=%d submitted=%d\n", hw, fb, dl, shed, m.Submitted.Load())
	return nil
}

// printModel sets serve's calibrated queueing model (serve.Calibrate +
// serve.RunModel) next to the measured values. Its rows are predictions:
// they are never gated, and a model that cannot calibrate fails no run.
// devices is the device count the server reported.
func printModel(rc runConfig, m map[string]float64, devices int) {
	cal, err := serve.Calibrate(core.ChipConfig(), serveDefaults.batchPairs, serveReadLen, calibrationSeed)
	if err != nil {
		fmt.Fprintf(rc.log, "model unavailable: %v\n", err)
		return
	}
	doc := serve.RunModel(serve.ModelConfig{
		Cal:             cal,
		Devices:         devices,
		SoftwareWorkers: serveDefaults.softwareWorkers,
		BatchPairs:      serveDefaults.batchPairs,
		BatchDelayNs:    int64(serveDefaults.batchDelay),
		QueueLimit:      serveDefaults.queueLimit,
		PairsPerLoad:    100_000,
		LoadMultiples:   []int{1},
	})
	pt := doc.Loads[0]
	rows := []struct {
		name     string
		pred     float64
		measured string
	}{
		{"model.capacity_pps", float64(doc.CapacityPPS), "max_rate_pps"},
		{"model.p50_ms", float64(pt.P50Us) / 1000, "mean_ms.low"},
		{"model.p50_ms", float64(pt.P50Us) / 1000, "mean_ms.high"},
		{"model.p99_ms", float64(pt.P99Us) / 1000, "p99_ms.low"},
		{"model.p99_ms", float64(pt.P99Us) / 1000, "p99_ms.high"},
	}
	for _, r := range rows {
		meas := m[r.measured]
		fmt.Fprintf(rc.log, "model %-18s %12.6g (prediction)  measured %-12s %12.6g  rel_err %+.4g\n",
			r.name, r.pred, r.measured, meas, (r.pred-meas)/meas)
	}
	fmt.Fprintln(rc.log, "model serve.RunModel only evaluates integer multiples >= 1 of its own predicted capacity;"+
		" its 1x point stands in for every measured rate. Its p50 is set against the measured mean, which stands in"+
		" for the median of a one-connection sample. Model rows are predictions and are not gated.")
}

// span is a share of the run's measured seconds.
func span(rc runConfig, share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

// setupReps is how many times set-up is repeated for its median.
func setupReps(rc runConfig) int {
	if rc.small {
		return 2
	}
	return 15
}

// layerReps is how many timed samples each layer probe takes.
func layerReps(rc runConfig) int {
	if rc.small {
		return 1
	}
	return 3
}
