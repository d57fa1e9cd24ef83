package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	tensorlights "repro"
	"repro/internal/trace"
)

// A run sets its workload up at least minSetups times and until
// setupBudget has passed, at most maxSimSetups times for a simulator
// workload and maxSetups times for the daemon, whose every start opens
// a journal; setup_s is the median. Set-ups of the small testbeds take
// about 0.1 ms, and a median over a whole budget of them repeats more
// closely from run to run than one over the first 101.
const (
	minSetups    = 5
	maxSetups    = 101
	maxSimSetups = 20_001
	setupBudget  = time.Second
)

// Each timed trial is preceded by at least minAdmissions and at most
// maxAdmissions admission calls, stopping early once admissionBudget
// has passed, so cheap admissions get enough samples for a stable p90.
const (
	minAdmissions   = 5
	maxAdmissions   = 25
	admissionBudget = 30 * time.Millisecond
)

// minTrials is the floor on timed trials when a trial outlasts the
// measured window.
const minTrials = 3

// simSetup generates the workload's first input and builds its testbed
// repeatedly, returning the median time.
func simSetup(w *simWorkload, seed int64, spans *spanLog) (float64, error) {
	var xs []float64
	runtime.GC()
	for begin := time.Now(); len(xs) < minSetups || len(xs) < maxSimSetups && time.Since(begin) < setupBudget; {
		start := time.Now()
		_, end := spans.begin("inputs", 0, 0)
		in, err := w.gen(inputSeed(seed))
		end()
		if err != nil {
			return 0, fmt.Errorf("generate inputs: %w", err)
		}
		_, end = spans.begin("build", 0, 0)
		err = in.build()
		end()
		if err != nil {
			return 0, fmt.Errorf("build testbed: %w", err)
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// trialInput is what one trial runs and the output it must produce.
type trialInput struct {
	run       func(context.Context) (outcome, error)
	runTraced func(context.Context, trace.Tracer) (outcome, error)
	want      string
}

// simTrials hands out trial k's input: input seed (seed+k) mod 64, so a
// run's median spans many inputs and runs with nearby seeds overlap.
func simTrials(w *simWorkload, seed int64, refs []string) func(k int) (trialInput, error) {
	return func(k int) (trialInput, error) {
		is := inputSeed(seed + int64(k))
		in, err := w.gen(is)
		if err != nil {
			return trialInput{}, err
		}
		return trialInput{
			run:       in.run,
			runTraced: in.runTraced,
			want:      refs[is],
		}, nil
	}
}

// trialSample is one timed trial.
type trialSample struct {
	wall, cpu, heapMB float64
	events            uint64
	mem               memDelta
}

// timeTrial runs f once, measuring wall and CPU time, peak heap and
// allocation work.
func timeTrial(f func() (outcome, error)) (trialSample, outcome, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	hs := startHeapSampler()
	cpu0 := cpuSeconds()
	start := time.Now()
	out, err := f()
	s := trialSample{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0}
	s.heapMB = hs.Stop()
	s.mem = memSince(&before)
	s.events = out.Events
	return s, out, err
}

// checkOutcome compares a trial's output hash with the reference.
func checkOutcome(t *tally, out outcome, err error, want string) {
	if err != nil {
		t.check(false, err.Error())
		return
	}
	got := out.hash()
	t.check(got == want, fmt.Sprintf("output %s, reference %s (makespan %.4f s, %d events)", got, want, out.Makespan, out.Events))
}

// admission times the public entry point up to the simulator's first
// cancellation check: a call whose context is already cancelled
// validates the config, builds the testbed and launches the jobs, then
// returns. It is the library's analogue of the daemon's POST → 202.
func admission(run func(context.Context) (outcome, error)) float64 {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _ = run(ctx) // the cancellation error is the expected outcome
	return time.Since(start).Seconds()
}

func sec(v float64) metric { return metric{v, "s"} }

// timedSim is the untraced run of a simulator workload.
func timedSim(ctx context.Context, w *simWorkload, seed int64, seconds float64, refs []string) (map[string]metric, *tally, error) {
	setup, err := simSetup(w, seed, newSpanLog())
	if err != nil {
		return nil, nil, err
	}
	next := simTrials(w, seed, refs)
	t := &tally{}
	// One untimed, checked trial first, so the heap has grown to its
	// working size before the window opens.
	warm, err := next(-1)
	if err != nil {
		return nil, nil, err
	}
	out, err := warm.run(ctx)
	checkOutcome(t, out, err, warm.want)
	var samples []trialSample
	var admits []float64
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for len(samples) < minTrials || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		in, err := next(len(samples))
		if err != nil {
			return nil, nil, err
		}
		runtime.GC() // the previous trial's garbage is not the next admission's cost
		for r, begin := 0, time.Now(); r < minAdmissions || r < maxAdmissions && time.Since(begin) < admissionBudget; r++ {
			admits = append(admits, admission(in.run))
		}
		s, out, err := timeTrial(func() (outcome, error) { return in.run(ctx) })
		checkOutcome(t, out, err, in.want)
		samples = append(samples, s)
	}
	elapsed := time.Since(start).Seconds()
	var walls, cpus, heaps []float64
	for _, s := range samples {
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
		heaps = append(heaps, s.heapMB)
	}
	return map[string]metric{
		"setup_s":              sec(setup),
		"trial_wall_s":         sec(median(walls)),
		"trial_cpu_s":          sec(median(cpus)),
		"peak_heap_mb":         {median(heaps), "MB"},
		"jobs_per_s":           {float64(len(samples)) / elapsed, "1/s"},
		"job_latency_p50_s":    sec(median(walls)),
		"job_latency_p90_s":    sec(quantile(walls, 0.9)),
		"submit_latency_p50_s": sec(median(admits)),
		"submit_latency_p90_s": sec(quantile(admits, 0.9)),
	}, t, nil
}

// tracedTrials is the shared second half of a traced run: pairs of an
// untraced trial through the public entry point and the same trial
// with a counting Tracer, alternating until the deadline. It reports
// event counts, tracing overhead, allocation work and ns/event.
func tracedTrials(ctx context.Context, deadline time.Time, next func(k int) (trialInput, error), spans *spanLog, t *tally) (map[string]metric, error) {
	var plain, traced []trialSample
	counts := map[string][]float64{}
	for trial := 1; len(plain) < 2 || time.Now().Before(deadline); trial++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, end := spans.begin("inputs", trial, 0)
		in, err := next(trial)
		end()
		if err != nil {
			return nil, err
		}
		for _, withTracer := range []bool{false, true} {
			id, end := spans.begin("trial", trial, 0)
			tr := newCountingTracer()
			s, out, err := timeTrial(func() (outcome, error) {
				if withTracer {
					return in.runTraced(ctx, tr)
				}
				return in.run(ctx)
			})
			end()
			_, endCheck := spans.begin("check", trial, id)
			checkOutcome(t, out, err, in.want)
			endCheck()
			if withTracer {
				traced = append(traced, s)
				for _, k := range tracedKinds {
					counts[string(k)] = append(counts[string(k)], float64(tr.counts[k]))
				}
			} else {
				plain = append(plain, s)
			}
		}
	}
	col := func(ss []trialSample, f func(trialSample) float64) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = f(s)
		}
		return out
	}
	plainWall := median(col(plain, func(s trialSample) float64 { return s.wall }))
	tracedWall := median(col(traced, func(s trialSample) float64 { return s.wall }))
	m := map[string]metric{
		"trace.untraced_trial_wall_s": sec(plainWall),
		"trace.traced_trial_wall_s":   sec(tracedWall),
		"trace.overhead_ratio":        {tracedWall / plainWall, "ratio"},
		"go.allocs_per_trial":         {median(col(plain, func(s trialSample) float64 { return s.mem.allocs })), "count"},
		"go.alloc_mb_per_trial":       {median(col(plain, func(s trialSample) float64 { return s.mem.allocMB })), "MB"},
		"go.gc_cycles_per_trial":      {median(col(plain, func(s trialSample) float64 { return s.mem.gcs })), "count"},
		"sim.ns_per_event": {median(col(plain, func(s trialSample) float64 {
			return s.wall * 1e9 / float64(max(s.events, 1))
		})), "ns"},
	}
	for k, xs := range counts {
		m["trace."+k] = metric{median(xs), "count"}
	}
	return m, nil
}

// addLayers merges the microbenchmark results, the span summary and
// the CPU shares into m.
func addLayers(m, layers map[string]metric, spans *spanLog, shares map[string]float64) {
	for k, v := range layers {
		m[k] = v
	}
	for k, xs := range spans.durations() {
		m["span."+k+"_s"] = sec(median(xs))
	}
	for k, v := range shares {
		m["cpu_share."+k] = metric{v, "fraction"}
	}
}

// tracedSim is the traced run of a simulator workload: layer
// microbenchmarks, a profiled third of the window, then traced and
// untraced trials in pairs.
func tracedSim(ctx context.Context, w *simWorkload, seed int64, seconds float64, refs []string, tmp string) (map[string]metric, *tally, error) {
	spans := newSpanLog()
	if _, err := simSetup(w, seed, spans); err != nil {
		return nil, nil, err
	}
	next := simTrials(w, seed, refs)
	layers, err := layerMetrics(inputSeed(seed), tmp)
	if err != nil {
		return nil, nil, err
	}
	t := &tally{}
	profEnd := time.Now().Add(time.Duration(seconds / 3 * float64(time.Second)))
	shares, err := profileShares(func() error {
		// Profile inputs seed, seed-1, ... so the pairs below (seed+1,
		// seed+2, ...) run different ones.
		for n := 0; n < 1 || time.Now().Before(profEnd); n++ {
			in, err := next(-n)
			if err != nil {
				return err
			}
			out, err := in.run(ctx)
			checkOutcome(t, out, err, in.want)
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	deadline := time.Now().Add(time.Duration(seconds * 2 / 3 * float64(time.Second)))
	m, err := tracedTrials(ctx, deadline, next, spans, t)
	if err != nil {
		return nil, nil, err
	}
	addLayers(m, layers, spans, shares)
	return m, t, spans.write(filepath.Join(filepath.Dir(tmp), fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed)))
}

// daemonSetup starts and stops the daemon repeatedly, keeping the last
// one running, and returns it with the median start-up time.
func daemonSetup(tmp string, spans *spanLog) (*daemon, float64, error) {
	var xs []float64
	var d *daemon
	runtime.GC()
	for i, begin := 0, time.Now(); ; i++ {
		start := time.Now()
		_, end := spans.begin("build", 0, 0)
		var err error
		d, err = startDaemon(filepath.Join(tmp, fmt.Sprintf("daemon-%d", i)))
		end()
		if err != nil {
			return nil, 0, fmt.Errorf("start daemon: %w", err)
		}
		xs = append(xs, time.Since(start).Seconds())
		if len(xs) >= maxSetups || len(xs) >= minSetups && time.Since(begin) >= setupBudget {
			return d, median(xs), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, fmt.Errorf("stop daemon: %w", err)
		}
	}
}

// daemonRefs returns the recorded output hash of every pool job.
func daemonRefs(ref *references) ([]string, error) {
	if len(ref.Daemon) != daemonPool {
		return nil, fmt.Errorf("reference.json has %d daemon outputs, want %d", len(ref.Daemon), daemonPool)
	}
	return ref.Daemon, nil
}

// tallyJobs checks every closed-loop sample and returns the latencies
// of the jobs that finished correctly.
func tallyJobs(t *tally, samples []jobSample) (submits, jobs []float64, done int) {
	for _, s := range samples {
		t.check(s.ok, s.detail)
		if s.submitSec > 0 {
			submits = append(submits, s.submitSec)
		}
		if s.ok {
			jobs = append(jobs, s.jobSec)
			done++
		}
	}
	return submits, jobs, done
}

// timedDaemon is the untraced run of the daemon workload.
func timedDaemon(seed int64, seconds float64, ref *references, tmp string) (map[string]metric, *tally, error) {
	refs, err := daemonRefs(ref)
	if err != nil {
		return nil, nil, err
	}
	d, setup, err := daemonSetup(tmp, newSpanLog())
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	hs := startHeapSampler()
	cpu0 := cpuSeconds()
	samples, elapsed := driveDaemon(d, seed, seconds, refs)
	cpu := cpuSeconds() - cpu0
	peak := hs.Stop()
	runs := d.runWalls()
	if err := d.stop(); err != nil {
		return nil, nil, fmt.Errorf("stop daemon: %w", err)
	}
	t := &tally{}
	submits, jobs, done := tallyJobs(t, samples)
	if done == 0 || len(runs) == 0 {
		return nil, nil, fmt.Errorf("no daemon job finished (%d submitted): %v", len(samples), t.notes)
	}
	return map[string]metric{
		"setup_s":              sec(setup),
		"trial_wall_s":         sec(median(runs)),
		"trial_cpu_s":          sec(cpu / float64(len(runs))),
		"peak_heap_mb":         {peak, "MB"},
		"jobs_per_s":           {float64(done) / elapsed, "1/s"},
		"job_latency_p50_s":    sec(median(jobs)),
		"job_latency_p90_s":    sec(quantile(jobs, 0.9)),
		"submit_latency_p50_s": sec(median(submits)),
		"submit_latency_p90_s": sec(quantile(submits, 0.9)),
	}, t, nil
}

// tracedDaemon is the traced run of the daemon workload: layer
// microbenchmarks, the closed loop under the CPU profiler for a third
// of the window, then one pool job replayed in traced and untraced
// pairs for event counts and tracing overhead.
func tracedDaemon(ctx context.Context, seed int64, seconds float64, ref *references, tmp string) (map[string]metric, *tally, error) {
	refs, err := daemonRefs(ref)
	if err != nil {
		return nil, nil, err
	}
	spans := newSpanLog()
	d, _, err := daemonSetup(tmp, spans)
	if err != nil {
		return nil, nil, err
	}
	layers, err := layerMetrics(inputSeed(seed), tmp)
	if err != nil {
		_ = d.stop()
		return nil, nil, err
	}
	t := &tally{}
	var samples []jobSample
	shares, err := profileShares(func() error {
		samples, _ = driveDaemon(d, seed, seconds/3, refs)
		return nil
	})
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, nil, err
	}
	tallyJobs(t, samples)

	next := func(k int) (trialInput, error) {
		pool := (daemonOffset(seed) + k) % daemonPool
		in, err := gridInput(int64(pool), daemonSteps)
		if err != nil {
			return trialInput{}, err
		}
		return trialInput{run: in.run, runTraced: in.runTraced, want: refs[pool]}, nil
	}
	deadline := time.Now().Add(time.Duration(seconds * 2 / 3 * float64(time.Second)))
	m, err := tracedTrials(ctx, deadline, next, spans, t)
	if err != nil {
		return nil, nil, err
	}
	addLayers(m, layers, spans, shares)
	return m, t, spans.write(filepath.Join(filepath.Dir(tmp), fmt.Sprintf("spans-daemon-closed-loop-seed%d.jsonl", seed)))
}

// generateReferences recomputes every recorded output. The open-world
// workloads are run three times per input and the most frequent output
// recorded, because the SRSF one's outcome is known to vary between
// runs; the log line says how many distinct outputs each input gave.
func generateReferences(path string) error {
	ref := references{
		Note:      "Output hashes (see outcome.hash) per workload and input seed 0..63, and per daemon pool job 0..1023. Regenerate with: bash perfbench/run.sh --gen-reference perfbench/reference.json",
		Workloads: map[string][]string{},
	}
	ctx := context.Background()
	for i := range simWorkloads {
		w := &simWorkloads[i]
		runs := 1
		if strings.HasPrefix(w.name, "openworld24-") {
			runs = 3
		}
		for s := int64(0); s < inputPool; s++ {
			in, err := w.gen(s)
			if err != nil {
				return err
			}
			votes := map[string]int{}
			best := ""
			start := time.Now()
			for r := 0; r < runs; r++ {
				out, err := in.run(ctx)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, s, err)
				}
				h := out.hash()
				votes[h]++
				if votes[h] > votes[best] {
					best = h
				}
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %d distinct output(s) in %d run(s), %.2f s\n",
				w.name, s, len(votes), runs, time.Since(start).Seconds())
			ref.Workloads[w.name] = append(ref.Workloads[w.name], best)
		}
		fmt.Fprintf(os.Stderr, "%s: %d references\n", w.name, inputPool)
	}
	ref.Daemon = make([]string, daemonPool)
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < daemonPool; i += len(errs) {
				r, err := tensorlights.RunExperimentContext(ctx, daemonJob(i))
				if err != nil {
					errs[g] = err
					return
				}
				ref.Daemon[i] = facadeOutcome(r).hash()
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
