package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"sync"
	"time"

	tensorlights "repro"
	"repro/internal/metrics"
)

// Config tunes the daemon. The zero value is usable apart from
// JournalPath, which is required.
type Config struct {
	// JournalPath is the append-only JSONL write-ahead log (required).
	JournalPath string
	// Workers is the number of concurrent job runners (default 2).
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds load
	// with 429 + Retry-After (default 64).
	QueueDepth int
	// MaxRetries is how many times a failed attempt is retried before
	// the job is marked failed (default 2, i.e. up to 3 attempts; a
	// negative value disables retries entirely).
	MaxRetries int
	// RetryBackoff is the base of the exponential backoff between
	// attempts (default 200ms); MaxBackoff caps it (default 10s). Each
	// wait adds up to 50% seeded jitter so synchronized failures do not
	// retry in lockstep.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// DefaultTimeout is the per-job deadline when the submission does
	// not set one (default 15m; <= 0 at submission means this default).
	DefaultTimeout time.Duration
	// RatePerSec and RateBurst rate-limit submissions per client
	// (X-Client-ID header, else remote host). 0 disables limiting.
	RatePerSec float64
	RateBurst  int
	// Parallelism is the sweep-engine parallelism handed to each job's
	// experiment (0 = GOMAXPROCS). Jobs themselves run Workers-wide.
	Parallelism int
	// QueuePolicy orders the admission queue: QueueFIFO (default) runs
	// jobs in submission order; QueueSRSF runs the job with the
	// smallest expected remaining work first (estimated from the
	// submitted config: steps x jobs x model update bytes), which
	// keeps short experiments from stalling behind long ones.
	QueuePolicy string
	// Runner executes one experiment; tests substitute fakes. Defaults
	// to tensorlights.RunExperimentContext.
	Runner func(ctx context.Context, cfg tensorlights.ExperimentConfig) (*tensorlights.Result, error)
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)

	// nowFn overrides the clock (tests only).
	nowFn func() time.Time
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 200 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 10 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 15 * time.Minute
	}
	if c.QueuePolicy == "" {
		c.QueuePolicy = QueueFIFO
	}
	if c.Runner == nil {
		c.Runner = func(ctx context.Context, cfg tensorlights.ExperimentConfig) (*tensorlights.Result, error) {
			return tensorlights.RunExperimentContext(ctx, cfg)
		}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.nowFn == nil {
		c.nowFn = time.Now
	}
}

// JobState is a job's lifecycle state as exposed over the API.
type JobState string

// Lifecycle: queued → running → done | failed | cancelled. A daemon
// crash can strand a job in queued/running; replay re-queues it.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// job is the server-side record of one submission.
type job struct {
	id         string
	hash       string
	cfg        tensorlights.ExperimentConfig
	timeoutSec float64
	work       float64 // expected work estimate, the SRSF ranking key

	// Guarded by Server.mu.
	state     JobState
	attempts  int
	errMsg    string
	result    *tensorlights.Result
	cancelReq bool
	cancel    context.CancelFunc // non-nil while running
	done      chan struct{}      // closed at terminal state
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID       string               `json:"id"`
	Hash     string               `json:"hash"`
	State    JobState             `json:"state"`
	Attempts int                  `json:"attempts"`
	Deduped  bool                 `json:"deduped,omitempty"`
	Error    string               `json:"error,omitempty"`
	Result   *tensorlights.Result `json:"result,omitempty"`
}

// Typed submission rejections; the HTTP layer maps them onto status
// codes and Retry-After headers.
var (
	// ErrDraining rejects submissions while the daemon drains (503).
	ErrDraining = errors.New("server: draining, not admitting jobs")
	// ErrUnknownJob is returned for status/cancel of an unknown id (404).
	ErrUnknownJob = errors.New("server: unknown job")
)

// OverloadError is a load-shedding rejection (429 + Retry-After).
type OverloadError struct {
	Reason     string // "queue_full" or "rate_limited"
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: overloaded (%s), retry after %s", e.Reason, e.RetryAfter)
}

// retryAfterQueueFull is the backpressure hint when the bounded queue
// rejects a submission.
const retryAfterQueueFull = 5 * time.Second

// Server is the tlsimd daemon core: journal, bounded queue, worker
// pool, dedup cache, rate limiter, and metrics. Create with New, start
// workers with Start, stop with Drain (graceful) or Kill (crash
// simulation, tests).
type Server struct {
	cfg       Config
	journal   *Journal
	collector *metrics.Collector
	limiter   *rateLimiter
	met       serverMetrics

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string          // submission order, for listing and recovery
	byHash   map[string]string // config hash → most recent job id
	cache    map[string]*tensorlights.Result
	pending  []*job // admitted, not yet picked; ordered per QueuePolicy by dequeue
	queued   int    // jobs admitted but not yet picked up by a worker
	nextID   int
	draining bool
	closed   bool // queue channel closed

	// queue carries one wake token per pending job; the job itself
	// lives in s.pending so dequeue can reorder it per QueuePolicy.
	queue   chan struct{}
	workers sync.WaitGroup

	startOnce  sync.Once
	stopOnce   sync.Once
	drainBegan chan struct{} // closed when a drain starts, for the process owner
}

type serverMetrics struct {
	submitted *metrics.Counter
	deduped   *metrics.Counter
	recovered *metrics.Counter
	completed *metrics.Counter
	failed    *metrics.Counter
	cancelled *metrics.Counter
	retries   *metrics.Counter
	panics    *metrics.Counter
	rejQueue  *metrics.Counter
	rejRate   *metrics.Counter
	rejDrain  *metrics.Counter
	running   *metrics.Gauge
}

// New opens (and replays) the journal and rebuilds the daemon's state:
// every job whose journal tail is non-terminal — submitted or running
// when the previous process died — is re-queued exactly once, in its
// original submission order. Done records repopulate the dedup cache,
// so recovered duplicates are served from cache, not re-run. Call
// Start to begin executing.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.JournalPath == "" {
		return nil, errors.New("server: Config.JournalPath is required")
	}
	if cfg.QueuePolicy != QueueFIFO && cfg.QueuePolicy != QueueSRSF {
		return nil, fmt.Errorf("server: unknown queue policy %q (want %s or %s)",
			cfg.QueuePolicy, QueueFIFO, QueueSRSF)
	}
	// Rotate the journal before replaying it: records that a terminal
	// state makes redundant are dropped, so the log stays proportional
	// to the job count rather than the attempt count. Crash-safe — see
	// CompactJournal.
	if kept, dropped, err := CompactJournal(cfg.JournalPath); err != nil {
		return nil, err
	} else if dropped > 0 {
		cfg.Logf("tlsimd: compacted journal %s: kept %d record(s), dropped %d", cfg.JournalPath, kept, dropped)
	}
	journal, recs, err := OpenJournal(cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		journal:    journal,
		collector:  metrics.NewCollector(),
		limiter:    newRateLimiter(cfg.RatePerSec, cfg.RateBurst, cfg.nowFn),
		jobs:       map[string]*job{},
		byHash:     map[string]string{},
		cache:      map[string]*tensorlights.Result{},
		drainBegan: make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.registerMetrics()

	// Replay: the last record per job wins.
	for _, r := range recs {
		switch r.T {
		case recSubmitted:
			if r.Config == nil {
				return nil, fmt.Errorf("server: journal: submitted record %s has no config", r.ID)
			}
			j := &job{
				id: r.ID, hash: r.Hash, cfg: *r.Config, timeoutSec: r.TimeoutSec,
				work:  expectedWorkBytes(*r.Config),
				state: JobQueued, done: make(chan struct{}),
			}
			s.jobs[r.ID] = j
			s.order = append(s.order, r.ID)
			s.byHash[r.Hash] = r.ID
			var n int
			if _, err := fmt.Sscanf(r.ID, "j%d", &n); err == nil && n >= s.nextID {
				s.nextID = n + 1
			}
		case recRunning:
			if j := s.jobs[r.ID]; j != nil {
				j.state = JobRunning
				j.attempts = r.Attempt
			}
		case recDone:
			if j := s.jobs[r.ID]; j != nil {
				j.state = JobDone
				j.result = r.Result
				close(j.done)
				if j.hash != "" {
					s.cache[j.hash] = r.Result
				}
			}
		case recFailed:
			if j := s.jobs[r.ID]; j != nil {
				j.state = JobFailed
				j.errMsg = r.Error
				close(j.done)
			}
		case recCancelled:
			if j := s.jobs[r.ID]; j != nil {
				j.state = JobCancelled
				close(j.done)
			}
		default:
			return nil, fmt.Errorf("server: journal: unknown record type %q", r.T)
		}
	}

	// Interrupted jobs: non-terminal journal tail. Reset to queued with
	// a fresh attempt budget — the crashed attempt tells us nothing
	// about the job itself — and size the queue to hold all of them
	// even if the configured depth shrank.
	var interrupted []*job
	for _, id := range s.order {
		j := s.jobs[id]
		if !j.state.terminal() {
			j.state = JobQueued
			j.attempts = 0
			interrupted = append(interrupted, j)
		}
	}
	depth := cfg.QueueDepth
	if len(interrupted) > depth {
		depth = len(interrupted)
	}
	s.queue = make(chan struct{}, depth)
	for _, j := range interrupted {
		s.pending = append(s.pending, j)
		s.queue <- struct{}{}
		s.queued++
		s.met.recovered.Inc()
	}
	if len(interrupted) > 0 {
		cfg.Logf("tlsimd: recovered %d interrupted job(s) from %s", len(interrupted), cfg.JournalPath)
	}
	return s, nil
}

func (s *Server) registerMetrics() {
	c := s.collector
	s.met = serverMetrics{
		submitted: c.Counter("tlsimd_jobs_submitted_total", "Jobs admitted to the queue."),
		deduped:   c.Counter("tlsimd_jobs_deduped_total", "Submissions served from the content-addressed result cache or matched to an in-flight identical job."),
		recovered: c.Counter("tlsimd_jobs_recovered_total", "Interrupted jobs re-queued from the journal at startup."),
		completed: c.Counter("tlsimd_jobs_completed_total", "Jobs run to completion."),
		failed:    c.Counter("tlsimd_jobs_failed_total", "Jobs that exhausted their retry budget."),
		cancelled: c.Counter("tlsimd_jobs_cancelled_total", "Jobs cancelled by request."),
		retries:   c.Counter("tlsimd_job_retries_total", "Attempt retries after failures, panics, or deadline expiries."),
		panics:    c.Counter("tlsimd_job_panics_recovered_total", "Worker panics recovered and converted to job errors."),
		rejQueue:  c.Counter("tlsimd_jobs_rejected_total", "Submissions shed.", metrics.Label{Key: "reason", Value: "queue_full"}),
		rejRate:   c.Counter("tlsimd_jobs_rejected_total", "Submissions shed.", metrics.Label{Key: "reason", Value: "rate_limited"}),
		rejDrain:  c.Counter("tlsimd_jobs_rejected_total", "Submissions shed.", metrics.Label{Key: "reason", Value: "draining"}),
		running:   c.Gauge("tlsimd_jobs_running", "Jobs currently executing."),
	}
	c.GaugeFunc("tlsimd_queue_depth", "Jobs admitted and waiting for a worker.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queued)
	})
	c.GaugeFunc("tlsimd_cache_entries", "Content-addressed result cache size.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.cache))
	})
}

// Metrics exposes the daemon's metric registry (the /metrics endpoint
// renders it; tests read counters directly).
func (s *Server) Metrics() *metrics.Collector { return s.collector }

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		for w := 0; w < s.cfg.Workers; w++ {
			s.workers.Add(1)
			go func() {
				defer s.workers.Done()
				for range s.queue {
					j := s.dequeue()
					if j == nil {
						continue
					}
					if s.baseCtx.Err() != nil {
						// Killed: leave the job queued in the journal;
						// the next start re-runs it.
						continue
					}
					s.runJob(j)
				}
			}()
		}
	})
}

// HashConfig is the content address of a submission: the SHA-256 of
// the canonical JSON encoding of the ExperimentConfig (which includes
// the seed). Two submissions with equal hashes are the same
// deterministic computation, so the daemon serves the cached result
// instead of re-executing.
func HashConfig(cfg tensorlights.ExperimentConfig) (string, error) {
	cfg.TraceCSV = nil // never part of the computation's identity
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("server: hash config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Submit admits one experiment. client keys the rate limiter.
// Rejections are typed: ErrDraining, *OverloadError.
func (s *Server) Submit(cfg tensorlights.ExperimentConfig, timeoutSec float64, client string) (*JobStatus, error) {
	if cfg.TraceCSV != nil {
		return nil, errors.New("server: TraceCSV is not supported for submitted jobs")
	}
	hash, err := HashConfig(cfg)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.rejDrain.Inc()
		return nil, ErrDraining
	}
	// Dedup before admission control: serving a cached result costs no
	// queue slot and no tokens-worth of work.
	if res, ok := s.cache[hash]; ok {
		s.met.deduped.Inc()
		st := &JobStatus{Hash: hash, State: JobDone, Deduped: true, Result: res}
		if id, ok := s.byHash[hash]; ok {
			st.ID = id
			if j := s.jobs[id]; j != nil {
				st.Attempts = j.attempts
			}
		}
		return st, nil
	}
	if id, ok := s.byHash[hash]; ok {
		if j := s.jobs[id]; j != nil && !j.state.terminal() {
			// Identical job already queued or running: coalesce.
			s.met.deduped.Inc()
			return s.statusLocked(j, true), nil
		}
	}
	if ok, wait := s.limiter.allow(client); !ok {
		s.met.rejRate.Inc()
		return nil, &OverloadError{Reason: "rate_limited", RetryAfter: wait}
	}
	if s.queued >= s.cfg.QueueDepth {
		s.met.rejQueue.Inc()
		return nil, &OverloadError{Reason: "queue_full", RetryAfter: retryAfterQueueFull}
	}

	j := &job{
		id:         fmt.Sprintf("j%06d", s.nextID),
		hash:       hash,
		cfg:        cfg,
		timeoutSec: timeoutSec,
		work:       expectedWorkBytes(cfg),
		state:      JobQueued,
		done:       make(chan struct{}),
	}
	s.nextID++
	// Write-ahead: the submitted record hits disk before the job is
	// queued or acknowledged, so an admitted job can never be lost.
	if err := s.journal.Append(Record{
		T: recSubmitted, ID: j.id, Hash: hash, Config: &j.cfg, TimeoutSec: timeoutSec,
	}); err != nil {
		return nil, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byHash[hash] = j.id
	s.pending = append(s.pending, j)
	s.queued++
	s.met.submitted.Inc()
	s.queue <- struct{}{} // never blocks: queued < QueueDepth <= cap(queue)
	return s.statusLocked(j, false), nil
}

// Status returns one job's state.
func (s *Server) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return s.statusLocked(j, false), nil
}

// List returns every job in submission order.
func (s *Server) List() []*JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobStatus, 0, len(s.order))
	for _, id := range s.order {
		st := s.statusLocked(s.jobs[id], false)
		st.Result = nil // listings stay light; fetch one job for its result
		out = append(out, st)
	}
	return out
}

// Cancel aborts a job: a queued job is marked cancelled immediately
// (the worker skips it), a running job has its context cancelled and
// settles as cancelled once the simulation stops. Terminal jobs are
// left as-is.
func (s *Server) Cancel(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.state.terminal() {
		return s.statusLocked(j, false), nil
	}
	j.cancelReq = true
	if j.state == JobQueued {
		if err := s.journal.Append(Record{T: recCancelled, ID: j.id}); err != nil {
			return nil, err
		}
		s.settleLocked(j, JobCancelled, "cancelled while queued", nil)
	} else if j.cancel != nil {
		j.cancel()
	}
	return s.statusLocked(j, false), nil
}

// Done exposes the job's completion channel (tests and tlctl wait).
func (s *Server) Done(id string) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.done, nil
}

// statusLocked renders a job; callers hold s.mu.
func (s *Server) statusLocked(j *job, deduped bool) *JobStatus {
	return &JobStatus{
		ID:       j.id,
		Hash:     j.hash,
		State:    j.state,
		Attempts: j.attempts,
		Deduped:  deduped,
		Error:    j.errMsg,
		Result:   j.result,
	}
}

// settleLocked moves a job to a terminal state; callers hold s.mu and
// have already journaled the transition.
func (s *Server) settleLocked(j *job, state JobState, errMsg string, res *tensorlights.Result) {
	j.state = state
	j.errMsg = errMsg
	j.result = res
	j.cancel = nil
	switch state {
	case JobDone:
		if res != nil {
			s.cache[j.hash] = res
		}
		s.met.completed.Inc()
	case JobFailed:
		s.met.failed.Inc()
	case JobCancelled:
		s.met.cancelled.Inc()
	}
	close(j.done)
}

// runJob executes one job with bounded retry, exponential backoff with
// seeded jitter, per-attempt deadlines, and panic isolation. It is the
// only writer of running/done/failed records for the job.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != JobQueued { // cancelled while queued
		s.queued--
		s.mu.Unlock()
		return
	}
	s.queued--
	j.state = JobRunning
	s.mu.Unlock()

	timeout := s.cfg.DefaultTimeout
	if j.timeoutSec > 0 {
		timeout = time.Duration(j.timeoutSec * float64(time.Second))
	}
	maxAttempts := s.cfg.MaxRetries + 1
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := s.journal.Append(Record{T: recRunning, ID: j.id, Attempt: attempt}); err != nil {
			s.cfg.Logf("tlsimd: journal running %s: %v", j.id, err)
		}
		ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
		s.mu.Lock()
		j.attempts = attempt
		j.cancel = cancel
		if j.cancelReq {
			// Cancel arrived between dequeue and attempt start, when
			// j.cancel was still nil; fire it now so the attempt aborts
			// immediately instead of running out its deadline.
			cancel()
		}
		s.mu.Unlock()
		s.met.running.Add(1)
		res, err := s.execute(ctx, j)
		s.met.running.Add(-1)
		cancel()
		s.mu.Lock()
		j.cancel = nil
		cancelReq := j.cancelReq
		s.mu.Unlock()

		switch {
		case err == nil:
			if jerr := s.journal.Append(Record{T: recDone, ID: j.id, Result: res}); jerr != nil {
				s.cfg.Logf("tlsimd: journal done %s: %v", j.id, jerr)
			}
			s.mu.Lock()
			s.settleLocked(j, JobDone, "", res)
			s.mu.Unlock()
			return
		case s.baseCtx.Err() != nil:
			// The daemon itself is going down (kill or forced drain).
			// Leave the job non-terminal in the journal: the next start
			// re-queues and re-runs it.
			return
		case cancelReq:
			if jerr := s.journal.Append(Record{T: recCancelled, ID: j.id}); jerr != nil {
				s.cfg.Logf("tlsimd: journal cancelled %s: %v", j.id, jerr)
			}
			s.mu.Lock()
			s.settleLocked(j, JobCancelled, "cancelled while running", nil)
			s.mu.Unlock()
			return
		}
		lastErr = err
		s.cfg.Logf("tlsimd: job %s attempt %d/%d failed: %v", j.id, attempt, maxAttempts, err)
		if attempt < maxAttempts {
			s.met.retries.Inc()
			if !s.sleep(s.backoff(j, attempt)) {
				return // daemon going down mid-backoff
			}
		}
	}
	if jerr := s.journal.Append(Record{T: recFailed, ID: j.id, Error: lastErr.Error()}); jerr != nil {
		s.cfg.Logf("tlsimd: journal failed %s: %v", j.id, jerr)
	}
	s.mu.Lock()
	s.settleLocked(j, JobFailed, lastErr.Error(), nil)
	s.mu.Unlock()
}

// execute runs one attempt with panic isolation: a panicking runner
// (or simulation layer beneath it) becomes this attempt's error, never
// a daemon crash.
func (s *Server) execute(ctx context.Context, j *job) (res *tensorlights.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.met.panics.Inc()
			err = fmt.Errorf("server: job %s panicked: %v", j.id, r)
		}
	}()
	return s.cfg.Runner(ctx, j.cfg)
}

// backoff computes the wait before the next attempt: exponential from
// RetryBackoff, capped at MaxBackoff, plus up to 50% jitter seeded by
// (job id, attempt) so waits are deterministic per job but spread
// across jobs.
func (s *Server) backoff(j *job, attempt int) time.Duration {
	d := s.cfg.RetryBackoff
	for i := 1; i < attempt && d < s.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > s.cfg.MaxBackoff {
		d = s.cfg.MaxBackoff
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", j.id, attempt)
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	return d + time.Duration(r.Float64()*0.5*float64(d))
}

// sleep waits d or until the daemon starts dying, whichever is first;
// it reports false when interrupted.
func (s *Server) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.baseCtx.Done():
		return false
	}
}

// Drain is the SIGTERM path: stop admitting (submissions get 503),
// let workers finish the queue, flush and close the journal. If ctx
// expires first, in-flight and queued jobs are abandoned — their
// journal state stays non-terminal, so the next start re-runs them
// (crash-equivalent, but with a synced journal).
func (s *Server) Drain(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.closed = true
		close(s.queue)
		s.mu.Unlock()
		close(s.drainBegan)
	})
	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	var forced error
	select {
	case <-idle:
	case <-ctx.Done():
		forced = ctx.Err()
		s.baseCancel()
		<-idle
	}
	s.baseCancel()
	if err := s.journal.Close(); err != nil {
		s.cfg.Logf("tlsimd: close journal: %v", err)
	}
	return forced
}

// DrainBegan is closed when the first Drain starts (e.g. via the
// POST /v1/drain endpoint), so the process owner can stop serving.
func (s *Server) DrainBegan() <-chan struct{} { return s.drainBegan }

// Draining reports whether the daemon has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Kill simulates SIGKILL for crash-recovery tests: abort everything
// immediately — in-flight jobs are interrupted between simulation
// events and written nowhere, so the journal is left exactly as a
// killed process would leave it (non-terminal tails for interrupted
// jobs). The journal file is closed so a restarted Server can reopen
// it on platforms that mind.
func (s *Server) Kill() {
	s.baseCancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}
