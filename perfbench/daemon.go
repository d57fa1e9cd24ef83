package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	tensorlights "repro"
	"repro/internal/server"
)

// The daemon workload: an in-process tlsimd behind loopback HTTP, with
// daemonClients closed-loop clients that each submit a small paper-grid
// experiment, wait for it to finish and submit the next. Jobs come from
// a pool of daemonPool configs (distinct seeds, so the dedup cache never
// answers); a run walks the pool from a seed-chosen offset and ends
// early if it exhausts it.
const (
	daemonClients = 2
	daemonPool    = 1024
	daemonSteps   = 200
)

// daemonJob is pool entry i: the paper's 21-job grid at placement #1
// under TLs-RR, shortened to daemonSteps.
func daemonJob(i int) tensorlights.ExperimentConfig {
	return gridExperiment(int64(i), daemonSteps)
}

// daemon is a running tlsimd: the server, its journal directory and
// the loopback HTTP listener in front of it.
type daemon struct {
	srv    *server.Server
	dir    string
	http   *http.Server
	served chan error
	url    string

	mu   sync.Mutex
	runs []float64 // wall seconds of each experiment the runner finished
}

// startDaemon opens a fresh journal under dir, starts the server's
// workers and serves its handler on a loopback port, returning once
// /readyz answers.
func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, served: make(chan error, 1)}
	srv, err := server.New(server.Config{
		JournalPath: filepath.Join(dir, "journal.jsonl"),
		Workers:     daemonClients,
		Parallelism: 1,
		Runner:      d.runner,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	d.srv = srv
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: srv.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(d.url + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: %s", resp.Status)
		}
	}
	if err != nil {
		_ = d.stop() // the readiness failure is the error worth reporting
		return nil, err
	}
	return d, nil
}

// runner is the daemon's experiment runner: the façade, timed.
func (d *daemon) runner(ctx context.Context, cfg tensorlights.ExperimentConfig) (*tensorlights.Result, error) {
	start := time.Now()
	res, err := tensorlights.RunExperimentContext(ctx, cfg)
	if err == nil {
		d.mu.Lock()
		d.runs = append(d.runs, time.Since(start).Seconds())
		d.mu.Unlock()
	}
	return res, err
}

func (d *daemon) runWalls() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.runs...)
}

// stop shuts the listener, drains the server, waits for the serving
// goroutine and removes the journal directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// jobSample is one closed-loop submission as a client saw it.
type jobSample struct {
	pool      int
	submitSec float64 // POST sent → 202 read
	jobSec    float64 // POST sent → job reached a terminal state
	ok        bool    // 202, terminal state done, result hash matched
	detail    string  // why not ok
}

// client submits jobs from next until the deadline passes or the pool
// runs out. Each job's outcome is compared with the recorded reference.
func (d *daemon) client(hc *http.Client, next func() (int, bool), deadline time.Time, ref []string, out *[]jobSample) {
	for time.Now().Before(deadline) {
		i, ok := next()
		if !ok {
			return
		}
		*out = append(*out, d.submitAndWait(hc, i, ref[i]))
	}
}

func (d *daemon) submitAndWait(hc *http.Client, pool int, want string) jobSample {
	s := jobSample{pool: pool}
	body, err := json.Marshal(server.SubmitRequest{Config: daemonJob(pool)})
	if err != nil {
		s.detail = err.Error()
		return s
	}
	start := time.Now()
	resp, err := hc.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.detail = err.Error()
		return s
	}
	var st server.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	s.submitSec = time.Since(start).Seconds()
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		s.detail = fmt.Sprintf("submit: %s %v", resp.Status, derr)
		return s
	}
	done, err := d.srv.Done(st.ID)
	if err != nil {
		s.detail = err.Error()
		return s
	}
	<-done
	s.jobSec = time.Since(start).Seconds()
	resp, err = hc.Get(d.url + "/v1/jobs/" + st.ID)
	if err != nil {
		s.detail = err.Error()
		return s
	}
	st = server.JobStatus{}
	derr = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode != http.StatusOK || derr != nil:
		s.detail = fmt.Sprintf("status: %s %v", resp.Status, derr)
	case st.State != server.JobDone || st.Result == nil:
		s.detail = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
	default:
		got := facadeOutcome(st.Result).hash()
		s.ok = got == want
		if !s.ok {
			s.detail = fmt.Sprintf("pool job %d: output %s, reference %s", pool, got, want)
		}
	}
	return s
}

// daemonOffset is where a run starts walking the job pool.
func daemonOffset(seed int64) int {
	return int(((seed%daemonPool)+daemonPool)%daemonPool*131) % daemonPool
}

// driveDaemon runs the closed loop against d for the given duration and
// returns every client's samples plus the wall time from the first
// submission to the last completion.
func driveDaemon(d *daemon, seed int64, seconds float64, ref []string) ([]jobSample, float64) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}}
	defer hc.CloseIdleConnections()
	var mu sync.Mutex
	k, offset := 0, daemonOffset(seed)
	next := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if k >= daemonPool {
			return 0, false
		}
		i := (offset + k) % daemonPool
		k++
		return i, true
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	outs := make([][]jobSample, daemonClients)
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.client(hc, next, deadline, ref, &outs[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var all []jobSample
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, elapsed
}
