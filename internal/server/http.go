package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	tensorlights "repro"
)

// SubmitRequest is the POST /v1/jobs body: the façade ExperimentConfig
// is the wire format, plus an optional per-job deadline.
type SubmitRequest struct {
	Config tensorlights.ExperimentConfig `json:"config"`
	// TimeoutSec overrides the server's default per-job deadline.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error      string  `json:"error"`
	RetryAfter float64 `json:"retry_after_sec,omitempty"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs             submit an experiment (202; 429 when shed, 503 when draining)
//	GET  /v1/jobs             list jobs (summaries, no results)
//	GET  /v1/jobs/{id}        one job, with result when done
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	POST /v1/drain            begin graceful drain (202)
//	GET  /healthz             liveness (200 while the process serves)
//	GET  /readyz              readiness (503 once draining)
//	GET  /metrics             Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = s.collector.WritePrometheus(w)
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	// A misspelled or retired field would otherwise be dropped silently
	// and a different experiment than the one asked for would run.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad submit body: %v", err)})
		return
	}
	st, err := s.Submit(req.Config, req.TimeoutSec, clientKey(r))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	code := http.StatusAccepted
	if st.Deduped && st.State == JobDone {
		code = http.StatusOK // nothing queued; the result is attached
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	// Kick the drain off in the background with a generous bound; the
	// process owner (cmd/tlsimd) observes Draining() and exits once the
	// HTTP server is idle.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

func writeSubmitError(w http.ResponseWriter, err error) {
	var over *OverloadError
	switch {
	case errors.As(err, &over):
		secs := math.Ceil(over.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(secs)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), RetryAfter: secs})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

// clientKey identifies the submitter for rate limiting: an explicit
// X-Client-ID header wins, else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
