package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	tensorlights "repro"
)

func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Kill()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, cfg tensorlights.ExperimentConfig, client string) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", client)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &st)
	return resp, st
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp
}

func TestHTTPSubmitPollAndList(t *testing.T) {
	cfg := testConfig(t)
	cfg.Runner = func(ctx context.Context, c tensorlights.ExperimentConfig) (*tensorlights.Result, error) {
		return &tensorlights.Result{AvgJCT: 9}, nil
	}
	s, ts := httpServer(t, cfg)

	resp, st := postJob(t, ts, expCfg(1), "c1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", resp.StatusCode)
	}
	if st.ID == "" {
		t.Fatalf("submit returned no job id: %+v", st)
	}
	waitTerminal(t, s, st.ID)

	var got JobStatus
	if r := getJSON(t, ts, "/v1/jobs/"+st.ID, &got); r.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", r.StatusCode)
	}
	if got.State != JobDone || got.Result == nil || got.Result.AvgJCT != 9 {
		t.Fatalf("polled job: %+v", got)
	}

	var list []*JobStatus
	getJSON(t, ts, "/v1/jobs", &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}
	if list[0].Result != nil {
		t.Fatalf("list should strip results, got %+v", list[0].Result)
	}

	if r := getJSON(t, ts, "/v1/jobs/nope", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", r.StatusCode)
	}
}

func TestHTTPOverload429WithRetryAfterHeader(t *testing.T) {
	// HTTP face of the overload acceptance test: full queue → 429 with
	// a parseable Retry-After header; identical resubmission after
	// completion → 200 straight from the dedup cache.
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	cfg.Runner = func(ctx context.Context, c tensorlights.ExperimentConfig) (*tensorlights.Result, error) {
		started <- struct{}{}
		select {
		case <-gate:
			return &tensorlights.Result{AvgJCT: float64(c.Seed)}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := httpServer(t, cfg)

	_, first := postJob(t, ts, expCfg(1), "c1")
	<-started
	postJob(t, ts, expCfg(2), "c1") // fills the depth-1 queue

	resp, _ := postJob(t, ts, expCfg(3), "c1")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After header %q, want integer seconds >= 1", ra)
	}

	close(gate)
	waitTerminal(t, s, first.ID)

	// Identical (config, seed) resubmission: 200 + cached result, not
	// another 202.
	resp2, st2 := postJob(t, ts, expCfg(1), "c1")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("dedup resubmit: %d, want 200", resp2.StatusCode)
	}
	if !st2.Deduped || st2.Result == nil || st2.Result.AvgJCT != 1 {
		t.Fatalf("dedup resubmit body: %+v", st2)
	}
}

func TestHTTPCancel(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.Runner = func(ctx context.Context, c tensorlights.ExperimentConfig) (*tensorlights.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s, ts := httpServer(t, cfg)
	_, st := postJob(t, ts, expCfg(1), "c1")
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+st.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != JobCancelled {
		t.Fatalf("cancelled via HTTP but settled as %+v", fin)
	}
}

func TestHTTPHealthReadyMetricsAndDrain(t *testing.T) {
	cfg := testConfig(t)
	cfg.Runner = func(ctx context.Context, c tensorlights.ExperimentConfig) (*tensorlights.Result, error) {
		return &tensorlights.Result{AvgJCT: 1}, nil
	}
	s, ts := httpServer(t, cfg)

	if r := getJSON(t, ts, "/healthz", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
	if r := getJSON(t, ts, "/readyz", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", r.StatusCode)
	}

	_, st := postJob(t, ts, expCfg(1), "c1")
	waitTerminal(t, s, st.ID)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"tlsimd_jobs_submitted_total 1",
		"tlsimd_jobs_completed_total 1",
		"tlsimd_queue_depth 0",
		`tlsimd_jobs_rejected_total{reason="queue_full"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}

	// Drain endpoint: 202, then readiness flips to 503 and submissions
	// get 503.
	dresp, err := ts.Client().Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: %d, want 202", dresp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if r := getJSON(t, ts, "/readyz", nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", r.StatusCode)
	}
	sresp, _ := postJob(t, ts, expCfg(2), "c1")
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", sresp.StatusCode)
	}
}

func TestHTTPBadSubmitBody(t *testing.T) {
	cfg := testConfig(t)
	s, ts := httpServer(t, cfg)
	for _, body := range []string{
		"{not json",
		// Unknown fields: a misspelled policy, and a retired option.
		`{"config":{"Polcy":"TLs-RR"}}`,
		`{"config":{"Sharded":{"Shards":2}}}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		derr := json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: %d, want 400", body, resp.StatusCode)
		}
		if derr != nil || eb.Error == "" {
			t.Fatalf("body %s: error payload: %v %+v", body, derr, eb)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("rejected bodies were queued: %+v", jobs)
	}
}
