// Command wfasic-serve runs the WFAsic alignment service: a JSON-over-HTTP
// front end sharding alignment requests across a fleet of simulated WFAsic
// devices plus software-WFA workers, with admission control, batching,
// per-device circuit breakers and graceful SIGTERM drain.
//
// Modes:
//
//	wfasic-serve -addr :8080                      # serve HTTP
//	wfasic-serve -loadgen -pairs 20000 -seed 7    # in-process deterministic load run
//	wfasic-serve -bench -out BENCH_8.json         # regenerate the capacity bench
//	wfasic-serve -bench-integrity -out BENCH_9.json  # regenerate the SDC-defense cost bench
//
// Quickstart:
//
//	curl -s localhost:8080/align -d '{"tenant":"demo","pairs":[{"id":1,"a":"ACGT","b":"ACGA"}]}'
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		devices    = flag.Int("devices", serve.DefaultDevices, "simulated WFAsic devices in the fleet")
		swWorkers  = flag.Int("sw-workers", serve.DefaultSoftwareWorkers, "software-WFA workers (degradation floor)")
		queueLimit = flag.Int("queue-limit", serve.DefaultQueueLimit, "max admitted-but-unanswered pairs")
		batchPairs = flag.Int("batch-pairs", serve.DefaultBatchPairs, "pairs per device job")
		batchDelay = flag.Duration("batch-delay", serve.DefaultBatchDelay, "max wait to fill a batch")
		tenantRate = flag.Float64("tenant-rate", 0, "per-tenant quota in pairs/sec (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "default per-request deadline (0 = none)")
		verify     = flag.Bool("verify-scores", false, "cross-check hardware results against the software oracle")

		loadgen = flag.Bool("loadgen", false, "run a deterministic in-process load instead of serving")
		pairs   = flag.Int("pairs", 20000, "loadgen: total pairs")
		tenants = flag.Int("tenants", 4, "loadgen: tenant count")
		readLen = flag.Int("read-len", 100, "loadgen/bench: read length in bases")
		reqSize = flag.Int("req-size", 32, "loadgen: pairs per request")
		seed    = flag.Uint64("seed", 1, "loadgen/bench: workload seed")
		journal = flag.String("journal", "", "loadgen: write the outcome journal to this file")

		bench          = flag.Bool("bench", false, "regenerate the capacity bench document")
		benchIntegrity = flag.Bool("bench-integrity", false, "regenerate the SDC-defense cost bench document")
		benchPairs     = flag.Int("bench-pairs", 256, "bench-integrity: pairs per policy run")
		out            = flag.String("out", "BENCH_8.json", "bench: output path")
	)
	flag.Parse()

	cfg := serve.Config{
		Devices:         *devices,
		SoftwareWorkers: *swWorkers,
		QueueLimit:      *queueLimit,
		BatchPairs:      *batchPairs,
		BatchDelay:      *batchDelay,
		TenantRate:      *tenantRate,
		DefaultTimeout:  *timeout,
	}
	if *verify {
		cfg.Resilient.Verify = integrity.Policy{Mode: integrity.ModeFull}
	}

	var err error
	switch {
	case *benchIntegrity:
		err = runBenchIntegrity(*benchPairs, *readLen, *seed, *out)
	case *bench:
		err = runBench(*batchPairs, *readLen, *seed, *devices, *swWorkers, *queueLimit, *batchDelay, *out)
	case *loadgen:
		err = runLoadgen(cfg, *pairs, *tenants, *readLen, *reqSize, *seed, *journal)
	default:
		err = runServe(cfg, *addr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfasic-serve:", err)
		os.Exit(1)
	}
}

// The HTTP edge's read bounds: a client that trickles its request header or
// body, or parks an idle keep-alive connection, is cut off instead of
// holding a goroutine and a socket for good. ReadTimeout spans header and
// body: the largest body the service accepts (8 MiB) still arrives in time
// over a link of about 2.2 Mbit/s.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in an http.Server with the edge's
// read bounds. WriteTimeout stays unset: it would run from the end of the
// header read and so cut off a large batch's answer while the fleet is still
// computing it. Answer time is bounded by the request deadline instead
// (timeout_ms, or the -timeout default).
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runServe serves HTTP until SIGTERM/SIGINT, then drains gracefully: stop
// accepting, answer everything in flight, shut the listener down.
func runServe(cfg serve.Config, addr string) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	hs := newHTTPServer(addr, s.Handler())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("wfasic-serve: listening on %s (%d devices, %d software workers)\n",
		addr, cfg.Devices, cfg.SoftwareWorkers)

	select {
	case sig := <-sigCh:
		fmt.Printf("wfasic-serve: %v: draining\n", sig)
	case err := <-errCh:
		return err
	}

	// Drain order matters: stop admitting first (in-flight HTTP requests
	// shed or finish), then wait for every admitted pair, then close the
	// listener so clients see clean connection ends.
	m := s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Printf("wfasic-serve: drained: answered=%d (hardware=%d fallback=%d deadline=%d) shed=%d\n",
		m.Answered(), m.HardwarePairs.Load(), m.FallbackPairs.Load(),
		m.DeadlinePairs.Load(), m.Shed())
	return nil
}

// runLoadgen drives a deterministic workload through the in-process service
// and prints the shed/answer accounting plus the no-drop invariant check.
func runLoadgen(cfg serve.Config, pairs, tenants, readLen, reqSize int, seed uint64, journalPath string) error {
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	perTenant := (pairs + tenants - 1) / tenants
	w := serve.NewWorkload(seed, tenants, perTenant, readLen, 0.05)
	j := &serve.Journal{}
	start := time.Now()
	rep, err := serve.RunWorkload(context.Background(), s, w, reqSize, j)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	m := s.Drain()

	answered := m.HardwarePairs.Load() + m.FallbackPairs.Load() + m.DeadlinePairs.Load()
	fmt.Printf("submitted=%d answered=%d shed=%d hardware=%d fallback=%d deadline=%d elapsed=%v pairs/sec=%.0f\n",
		rep.Submitted, answered, m.Shed(), m.HardwarePairs.Load(), m.FallbackPairs.Load(),
		m.DeadlinePairs.Load(), elapsed.Round(time.Millisecond),
		float64(answered)/elapsed.Seconds())
	if got := answered + m.Shed(); got != m.Submitted.Load() {
		return fmt.Errorf("no-drop invariant violated: answered+shed = %d, submitted = %d", got, m.Submitted.Load())
	}
	fmt.Println("no-drop invariant holds: hardware + fallback + deadline + shed == submitted")
	if journalPath != "" {
		if err := os.WriteFile(journalPath, []byte(j.Render()), 0o644); err != nil {
			return err
		}
		fmt.Printf("journal: %s (%d entries)\n", journalPath, j.Len())
	}
	return nil
}

// runBenchIntegrity prices the SDC defense: the same seeded fault-free
// workload through every verification policy, integrity cycles per pair and
// overhead against the verification-off baseline.
func runBenchIntegrity(pairs, readLen int, seed uint64, out string) error {
	doc, err := serve.RunIntegrityBench(core.ChipConfig(), pairs, readLen, seed)
	if err != nil {
		return err
	}
	data, err := doc.MarshalStable()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	for _, p := range doc.Points {
		fmt.Printf("%-8s sample=%4d/10000: integrity=%d cycles (%d/pair), total=%d, overhead=%d/1000\n",
			p.Mode, p.SamplePermyriad, p.IntegrityCycles, p.IntegrityCyclesPerPair,
			p.TotalCycles, p.OverheadPerMille)
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// runBench calibrates the service-time model on the real simulator and runs
// the deterministic capacity model at 1x/2x/5x offered load.
func runBench(batchPairs, readLen int, seed uint64, devices, swWorkers, queueLimit int, batchDelay time.Duration, out string) error {
	cal, err := serve.Calibrate(core.ChipConfig(), batchPairs, readLen, seed)
	if err != nil {
		return err
	}
	doc := serve.RunModel(serve.ModelConfig{
		Cal:             cal,
		Devices:         devices,
		SoftwareWorkers: swWorkers,
		BatchPairs:      batchPairs,
		BatchDelayNs:    batchDelay.Nanoseconds(),
		QueueLimit:      queueLimit,
		PairsPerLoad:    100_000,
		LoadMultiples:   []int{1, 2, 5},
	})
	data, err := doc.MarshalStable()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	for _, p := range doc.Loads {
		fmt.Printf("load %dx: offered=%d pps, throughput=%d pps, shed=%d/1000, p50=%dus p99=%dus\n",
			p.Multiple, p.OfferedPPS, p.ThroughputPPS, p.ShedPerMille, p.P50Us, p.P99Us)
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
