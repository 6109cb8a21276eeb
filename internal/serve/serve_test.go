package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/seqgen"
	"repro/internal/seqio"
	"repro/internal/soc"
)

// vclock is a manually-advanced clock for deterministic admission tests.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVclock() *vclock {
	return &vclock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *vclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func somePairs(n, length int) []seqio.Pair {
	pairs := make([]seqio.Pair, n)
	for i := range pairs {
		a := make([]byte, length)
		for j := range a {
			a[j] = "ACGT"[(i+j)%4]
		}
		pairs[i] = seqio.Pair{ID: uint32(i), A: a, B: a}
	}
	return pairs
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // "" means valid
	}{
		{"zero-defaults", Config{}, ""},
		{"negative-devices", Config{Devices: -1}, "Devices"},
		{"negative-workers", Config{SoftwareWorkers: -1}, "SoftwareWorkers"},
		{"request-exceeds-queue", Config{QueueLimit: 16, MaxPairsPerRequest: 64}, "QueueLimit"},
		{"backoff-inverted", Config{ProbeBackoffMin: time.Second, ProbeBackoffMax: time.Millisecond}, "ProbeBackoffMax"},
		{"negative-rate", Config{TenantRate: -1}, "TenantRate"},
		{"huge-batch", Config{BatchPairs: 1 << 17, QueueLimit: 1 << 18}, "BatchPairs"},
		{"bad-resilient", Config{Resilient: soc.ResilientOptions{MaxAttempts: -1}}, "MaxAttempts"},
		{"negative-timeout", Config{DefaultTimeout: -time.Second}, "DefaultTimeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSubmitValidation(t *testing.T) {
	s := testServer(t, Config{Devices: 1, SoftwareWorkers: 1, MaxPairsPerRequest: 8})
	defer s.Drain()
	ctx := context.Background()
	ok := somePairs(1, 32)

	cases := []struct {
		name   string
		tenant string
		pairs  []seqio.Pair
	}{
		{"empty-tenant", "", ok},
		{"bad-tenant-chars", "no spaces!", ok},
		{"no-pairs", "demo", nil},
		{"too-many-pairs", "demo", somePairs(9, 32)},
		{"empty-read", "demo", []seqio.Pair{{ID: 1, A: nil, B: []byte("ACGT")}}},
		{"over-cap", "demo", []seqio.Pair{{ID: 1, A: make([]byte, 20001), B: []byte("ACGT")}}},
		{"bad-base", "demo", []seqio.Pair{{ID: 1, A: []byte("ACGX"), B: []byte("ACGT")}}},
		{"lowercase-base", "demo", []seqio.Pair{{ID: 1, A: []byte("ACGT"), B: []byte("acgt")}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Submit(ctx, tc.tenant, tc.pairs, false); err == nil {
				t.Fatal("invalid request admitted")
			}
		})
	}

	// The valid request both admits and answers.
	res, err := s.Submit(ctx, "demo", ok, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Success || res[0].Score != 0 {
		t.Fatalf("identical reads: want success score 0, got %+v", res)
	}
}

func TestTenantQuota(t *testing.T) {
	clk := newVclock()
	s := testServer(t, Config{
		Devices: 1, SoftwareWorkers: 1,
		TenantRate: 1000, TenantBurst: 64, MaxPairsPerRequest: 64,
		Now: clk.now,
	})
	defer s.Drain()
	ctx := context.Background()

	if _, err := s.Submit(ctx, "quota", somePairs(64, 32), false); err != nil {
		t.Fatalf("first burst should pass: %v", err)
	}
	_, err := s.Submit(ctx, "quota", somePairs(64, 32), false)
	if !errors.Is(err, ErrShedQuota) {
		t.Fatalf("drained bucket: got %v, want ErrShedQuota", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.RetryAfter <= 0 {
		t.Fatalf("quota shed must carry a positive Retry-After, got %v", err)
	}
	// Another tenant is unaffected.
	if _, err := s.Submit(ctx, "other", somePairs(8, 32), false); err != nil {
		t.Fatalf("independent tenant shed: %v", err)
	}
	// Refill at 1000 pairs/sec: 64ms buys the burst back.
	clk.advance(64 * time.Millisecond)
	if _, err := s.Submit(ctx, "quota", somePairs(64, 32), false); err != nil {
		t.Fatalf("refilled bucket should pass: %v", err)
	}
	if s.metrics.ShedQuota.Load() != 64 {
		t.Fatalf("ShedQuota = %d, want 64", s.metrics.ShedQuota.Load())
	}
}

func TestOverloadShed(t *testing.T) {
	s := testServer(t, Config{Devices: 1, SoftwareWorkers: 1, QueueLimit: 128, MaxPairsPerRequest: 64})
	defer s.Drain()
	ctx := context.Background()

	// Fill the in-system budget directly (white-box): admission must shed.
	if !s.reserve(128) {
		t.Fatal("reserve on an empty budget failed")
	}
	_, err := s.Submit(ctx, "demo", somePairs(1, 32), false)
	if !errors.Is(err, ErrShedOverload) {
		t.Fatalf("full budget: got %v, want ErrShedOverload", err)
	}
	s.release(128)
	if _, err := s.Submit(ctx, "demo", somePairs(1, 32), false); err != nil {
		t.Fatalf("freed budget should admit: %v", err)
	}
}

func TestDrainRejectsAndAnswersEverything(t *testing.T) {
	s := testServer(t, Config{Devices: 1, SoftwareWorkers: 1})
	ctx := context.Background()
	if _, err := s.Submit(ctx, "demo", somePairs(32, 64), false); err != nil {
		t.Fatal(err)
	}
	m := s.Drain()
	if got := m.HardwarePairs.Load() + m.FallbackPairs.Load() + m.DeadlinePairs.Load(); got != 32 {
		t.Fatalf("drained server answered %d of 32 admitted pairs", got)
	}
	_, err := s.Submit(ctx, "demo", somePairs(1, 64), false)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: got %v, want ErrDraining", err)
	}
	if s.inSystem.Load() != 0 {
		t.Fatalf("in-system budget not empty after drain: %d", s.inSystem.Load())
	}
}

func TestRequestDeadlineOutcome(t *testing.T) {
	s := testServer(t, Config{Devices: 1, SoftwareWorkers: 1})
	defer s.Drain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the request is dead before it is batched
	res, err := s.Submit(ctx, "demo", somePairs(4, 64), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Deadline {
			t.Fatalf("dead request must yield deadline outcomes, got %+v", r)
		}
	}
	if s.metrics.DeadlinePairs.Load() != 4 {
		t.Fatalf("DeadlinePairs = %d, want 4", s.metrics.DeadlinePairs.Load())
	}
}

// The breaker walks healthy -> quarantined under chaos and probes back to
// healthy once the chaos stops, without dropping a single pair.
func TestBreakerQuarantineAndRecovery(t *testing.T) {
	s := testServer(t, Config{
		Devices: 1, SoftwareWorkers: 1,
		BatchPairs: 16, BatchDelay: time.Millisecond,
		BreakerThreshold: 1,
		ProbeBackoffMin:  time.Millisecond, ProbeBackoffMax: 4 * time.Millisecond,
		Resilient: soc.ResilientOptions{MaxAttempts: 2},
	})
	defer s.Drain()
	ctx := context.Background()

	// Poison the device: every read transaction errors, so each batch it
	// takes fails fast and falls back internally.
	if err := s.InjectFaults(0, fault.Config{Seed: 3, ReadErrorProb: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFaults(99, fault.Config{}); err == nil {
		t.Fatal("out-of-range device accepted")
	}

	deadline := time.Now().Add(30 * time.Second)
	for s.metrics.Quarantines.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("device never quarantined under 100% read-error chaos")
		}
		if _, err := s.Submit(ctx, "chaos", somePairs(16, 64), false); err != nil {
			t.Fatal(err)
		}
	}

	// Stop the chaos; the device must probe its way back to healthy.
	if err := s.InjectFaults(0, fault.Config{}); err != nil {
		t.Fatal(err)
	}
	for s.metrics.ProbeSuccesses.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("device never recovered after chaos stopped")
		}
		if _, err := s.Submit(ctx, "chaos", somePairs(16, 64), false); err != nil {
			t.Fatal(err)
		}
	}

	states := s.DeviceStates()
	if states[0] != "healthy" {
		t.Fatalf("device state after recovery = %q, want healthy", states[0])
	}
	if got := s.metrics.Answered(); got != s.metrics.Admitted.Load() {
		t.Fatalf("answered %d of %d admitted pairs", got, s.metrics.Admitted.Load())
	}
}

// Silent corruption on a device raises its SDC suspicion until its batches
// escalate to full shadow verification and then until the suspicion
// threshold forces a quarantine, while every answer still equals the
// software WFA.
func TestSDCEscalationAndQuarantine(t *testing.T) {
	s := testServer(t, Config{
		Devices: 1, SoftwareWorkers: 1,
		BatchPairs: 16, BatchDelay: time.Millisecond,
		ProbeBackoffMin: time.Millisecond, ProbeBackoffMax: 4 * time.Millisecond,
	})
	defer s.Drain()
	ctx := context.Background()

	// Input beats flip silently in flight: the job completes, but the ingest
	// witness trips and the attempt is discarded as SDC evidence.
	if err := s.InjectFaults(0, fault.Config{Seed: 5, DataFlipProb: 0.05}); err != nil {
		t.Fatal(err)
	}
	g := seqgen.New(17, 29)
	deadline := time.Now().Add(30 * time.Second)
	for s.metrics.SDCEscalations.Load() == 0 || s.metrics.SDCQuarantines.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("escalations=%d quarantines=%d: the SDC feedback loop never closed under silent faults",
				s.metrics.SDCEscalations.Load(), s.metrics.SDCQuarantines.Load())
		}
		set := g.Set(seqgen.Profile{Name: "sdc", Length: 100, ErrorRate: 0.05, NumPairs: 16})
		res, err := s.Submit(ctx, "sdc", set.Pairs, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range set.Pairs {
			want, _ := soc.SoftwareAlign(core.ChipConfig(), p, false)
			if res[i].Success != want.Success || res[i].Score != want.Score {
				t.Fatalf("pair %d: got success=%v score=%d, software WFA success=%v score=%d",
					p.ID, res[i].Success, res[i].Score, want.Success, want.Score)
			}
		}
	}
	if got := s.metrics.Answered(); got != s.metrics.Admitted.Load() {
		t.Fatalf("answered %d of %d admitted pairs", got, s.metrics.Admitted.Load())
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := testServer(t, Config{Devices: 1, SoftwareWorkers: 1})
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	post := func(body string) (*http.Response, string) {
		resp, err := http.Post(h.URL+"/align", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, string(data)
	}

	resp, body := post(`{"tenant":"demo","pairs":[{"id":7,"a":"ACGTACGTACGTACGT","b":"ACGAACGTACGTACGT"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("align: status %d body %s", resp.StatusCode, body)
	}
	var ar AlignResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Results) != 1 || !ar.Results[0].Success || ar.Results[0].ID != 7 || ar.Results[0].Score <= 0 {
		t.Fatalf("one-mismatch pair: got %+v", ar.Results)
	}

	if resp, body = post(`{"tenant":"demo","pairs":[{"id":1,"a":"ACGT","b":"ACGT"}],"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d body %s", resp.StatusCode, body)
	}
	if resp, body = post(`not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d body %s", resp.StatusCode, body)
	}
	if resp, body = post(`{"tenant":"demo","pairs":[{"id":1,"a":"ACGX","b":"ACGT"}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad base: status %d body %s", resp.StatusCode, body)
	}

	gr, err := http.Get(h.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := io.ReadAll(gr.Body)
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusOK || !strings.Contains(string(hb), `"devices"`) {
		t.Fatalf("healthz: status %d body %s", gr.StatusCode, hb)
	}

	gr, err = http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(gr.Body)
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if !strings.Contains(string(mb), "wfasic_serve_submitted_pairs 1") ||
		!strings.Contains(string(mb), `wfasic_serve_tenant_admitted_pairs{tenant="demo"} 1`) {
		t.Fatalf("metrics missing counters:\n%s", mb)
	}

	// Drain: align sheds 503 and healthz reports draining.
	s.Drain()
	if resp, body = post(`{"tenant":"demo","pairs":[{"id":1,"a":"ACGT","b":"ACGT"}]}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining align: status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 must carry Retry-After")
	}
	gr, err = http.Get(h.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d", gr.StatusCode)
	}
}

func TestHTTPQuotaShed(t *testing.T) {
	clk := newVclock()
	s := testServer(t, Config{
		Devices: 1, SoftwareWorkers: 1,
		TenantRate: 1, TenantBurst: 1, Now: clk.now,
	})
	defer s.Drain()
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	body := `{"tenant":"demo","pairs":[{"id":1,"a":"ACGT","b":"ACGT"}]}`
	resp, err := http.Post(h.URL+"/align", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first pair: status %d", resp.StatusCode)
	}
	resp, err = http.Post(h.URL+"/align", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("quota shed: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestJournalRenderStable(t *testing.T) {
	mk := func(order []int) string {
		j := &Journal{}
		es := []JournalEntry{
			{Tenant: "b", ID: 2, Status: "ok", Score: 5},
			{Tenant: "a", ID: 9, Status: "ok", Score: 1},
			{Tenant: "a", ID: 2, Status: "fail"},
		}
		for _, i := range order {
			j.Record(es[i])
		}
		return j.Render()
	}
	if mk([]int{0, 1, 2}) != mk([]int{2, 0, 1}) {
		t.Fatal("journal rendering depends on record order")
	}
}

func TestModelDeterministic(t *testing.T) {
	mc := ModelConfig{
		Cal: Calibration{
			ReadLen: 100, BatchPairs: 64,
			BatchBaseCycles: 200, PerPairCycles: 220,
			SoftwarePerPairCycles: 16000, ClockGHz: 1,
		},
		Devices: 2, SoftwareWorkers: 2, BatchPairs: 64,
		BatchDelayNs: 2_000_000, QueueLimit: 4096,
		PairsPerLoad: 50_000, LoadMultiples: []int{1, 2, 5},
	}
	a, err := RunModel(mc).MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunModel(mc).MarshalStable()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("model output is not byte-stable")
	}
	// Overload must actually shed, and harder overload must shed more.
	doc := RunModel(mc)
	if doc.Loads[1].Shed == 0 || doc.Loads[2].Shed <= doc.Loads[1].Shed {
		t.Fatalf("shed not monotone with load: %d at 2x, %d at 5x", doc.Loads[1].Shed, doc.Loads[2].Shed)
	}
	if doc.Loads[0].P50Us <= 0 || doc.Loads[0].P99Us < doc.Loads[0].P50Us {
		t.Fatalf("latency percentiles inconsistent: p50=%d p99=%d", doc.Loads[0].P50Us, doc.Loads[0].P99Us)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	a := NewWorkload(42, 3, 10, 100, 0.05)
	b := NewWorkload(42, 3, 10, 100, 0.05)
	for i := range a.Tenants {
		if a.Tenants[i].Name != b.Tenants[i].Name {
			t.Fatal("tenant names differ")
		}
		for k := range a.Tenants[i].Pairs {
			pa, pb := a.Tenants[i].Pairs[k], b.Tenants[i].Pairs[k]
			if pa.ID != pb.ID || string(pa.A) != string(pb.A) || string(pa.B) != string(pb.B) {
				t.Fatalf("pair %d/%d differs between same-seed workloads", i, k)
			}
		}
	}
}
