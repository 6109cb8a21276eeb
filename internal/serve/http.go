package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/perf"
	"repro/internal/seqio"
)

// AlignRequest is the POST /align body.
type AlignRequest struct {
	Tenant string `json:"tenant"`
	// TimeoutMS bounds the request end to end; 0 uses the server default
	// (which may be "no deadline").
	TimeoutMS int         `json:"timeout_ms,omitempty"`
	Backtrace bool        `json:"backtrace,omitempty"`
	Pairs     []AlignPair `json:"pairs"`
}

// AlignPair is one sequence pair in the wire schema.
type AlignPair struct {
	ID uint32 `json:"id"`
	A  string `json:"a"`
	B  string `json:"b"`
}

// AlignResponse is the POST /align success body.
type AlignResponse struct {
	Results []PairResult `json:"results"`
}

// maxBodyBytes bounds a POST /align body: a full 256-pair request of 10 kbp
// reads is about 5 MB of JSON.
const maxBodyBytes = 8 << 20

// errorResponse is every non-200 body.
type errorResponse struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// Handler returns the service's HTTP mux:
//
//	POST /align    — align a batch of pairs (JSON in, JSON out)
//	GET  /healthz  — liveness + per-device breaker states
//	GET  /metrics  — stable-order text counters + device perf snapshots
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/align", s.handleAlign)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// The body is already committed; an encode failure here has no channel
	// left to report on.
	_ = enc.Encode(v)
}

func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req AlignRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if req.TimeoutMS < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "timeout_ms is negative"})
		return
	}
	pairs := make([]seqio.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = seqio.Pair{ID: p.ID, A: []byte(p.A), B: []byte(p.B)}
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	results, err := s.Submit(ctx, req.Tenant, pairs, req.Backtrace)
	if err != nil {
		var shed *ShedError
		if errors.As(err, &shed) {
			status := http.StatusTooManyRequests
			if errors.Is(err, ErrDraining) {
				status = http.StatusServiceUnavailable
			}
			secs := int((shed.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, status, errorResponse{Error: shed.Err.Error(), RetryAfter: secs})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	status := http.StatusOK
	for _, res := range results {
		if res.Deadline {
			// The request outlived some of its pairs: the completed answers
			// are still in the body, but the verdict is a timeout.
			status = http.StatusGatewayTimeout
			break
		}
	}
	writeJSON(w, status, AlignResponse{Results: results})
}

// healthzResponse is the GET /healthz body.
type healthzResponse struct {
	Status        string   `json:"status"` // "ok" while serving, "draining" after Drain begins
	UptimeSeconds int64    `json:"uptime_seconds"`
	Devices       []string `json:"devices"` // per-device breaker state
	InSystem      int64    `json:"in_system_pairs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.admissionMu.RLock()
	draining := s.draining
	s.admissionMu.RUnlock()
	st := "ok"
	code := http.StatusOK
	if draining {
		st = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthzResponse{
		Status:        st,
		UptimeSeconds: uptimeSeconds(s.started, s.cfg.Now()),
		Devices:       s.DeviceStates(),
		InSystem:      s.inSystem.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snaps := make([]perf.Snapshot, len(s.devices))
	for i, d := range s.devices {
		if e := d.perfCache.Load(); e != nil {
			snaps[i] = e.Snap
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if _, err := w.Write([]byte(s.metrics.Render(s.DeviceStates(), s.DeviceSuspicion(), snaps))); err != nil {
		return
	}
}
