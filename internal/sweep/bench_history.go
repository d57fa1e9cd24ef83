package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

// BenchRun is one dated benchmark snapshot in the BENCH_sweep.json
// history. GitSHA and Date identify when the snapshot was taken; both
// are best-effort (empty for runs migrated from the legacy
// single-report format or taken outside a git checkout). Host
// identifies the machine; runs recorded before hosts were stamped have
// none and are never compared.
type BenchRun struct {
	GitSHA string       `json:"git_sha,omitempty"`
	Date   string       `json:"date,omitempty"` // YYYY-MM-DD, UTC
	Host   *BenchHost   `json:"host,omitempty"`
	Report *BenchReport `json:"report"`
}

// BenchHost fingerprints the machine a run was measured on. Wall-clock
// metrics are only comparable between runs with equal fingerprints.
type BenchHost struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// String renders the fingerprint on one line.
func (h BenchHost) String() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion)
}

// CurrentBenchHost fingerprints this machine. The CPU model is the
// first "model name" in /proc/cpuinfo, or "unknown" where there is
// none (non-Linux, some ARM kernels).
func CurrentBenchHost() BenchHost {
	h := BenchHost{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// MedianBenchReport combines repeated measurements of one benchmark
// configuration: every wall-clock metric is the median across reps,
// and the deterministic counts (events, chunks, jobs) come from the
// first. reps must be non-empty and share one configuration.
func MedianBenchReport(reps []*BenchReport) *BenchReport {
	out := *reps[0]
	out.FlowVsChunk = slices.Clone(out.FlowVsChunk)
	out.OpenWorld = slices.Clone(out.OpenWorld)
	vals := make([]float64, len(reps))
	median := func(field func(*BenchReport) *float64) {
		for i, r := range reps {
			vals[i] = *field(r)
		}
		slices.Sort(vals)
		*field(&out) = vals[len(vals)/2]
	}
	median(func(r *BenchReport) *float64 { return &r.SequentialSec })
	median(func(r *BenchReport) *float64 { return &r.ParallelSec })
	median(func(r *BenchReport) *float64 { return &r.TrialsPerSecSequential })
	median(func(r *BenchReport) *float64 { return &r.TrialsPerSecParallel })
	median(func(r *BenchReport) *float64 { return &r.Speedup })
	median(func(r *BenchReport) *float64 { return &r.NsPerEvent })
	median(func(r *BenchReport) *float64 { return &r.AllocsPerEvent })
	median(func(r *BenchReport) *float64 { return &r.FabricNsPerChunk })
	for i := range out.FlowVsChunk {
		median(func(r *BenchReport) *float64 { return &r.FlowVsChunk[i].ChunkSec })
		median(func(r *BenchReport) *float64 { return &r.FlowVsChunk[i].FlowSec })
		median(func(r *BenchReport) *float64 { return &r.FlowVsChunk[i].Speedup })
	}
	for i := range out.OpenWorld {
		median(func(r *BenchReport) *float64 { return &r.OpenWorld[i].WallSec })
		median(func(r *BenchReport) *float64 { return &r.OpenWorld[i].EventsPerSec })
	}
	return &out
}

// BenchHistory is the append-only run log persisted to
// BENCH_sweep.json, newest run last. Keeping every run in one file
// gives performance work a trajectory: each bench invocation appends
// and diffs itself against the previous entry.
type BenchHistory struct {
	Runs []BenchRun `json:"runs"`
}

// LoadBenchHistory parses a BENCH_sweep.json payload. Both layouts are
// accepted: the current {"runs": [...]} history, and the legacy file
// that held a single bare BenchReport object, which is migrated to a
// one-entry history with no sha/date. Empty input yields an empty
// history.
func LoadBenchHistory(r io.Reader) (*BenchHistory, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sweep: bench history: %w", err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return &BenchHistory{}, nil
	}
	var h BenchHistory
	if err := json.Unmarshal(data, &h); err == nil && h.Runs != nil {
		return &h, nil
	}
	var legacy BenchReport
	if err := json.Unmarshal(data, &legacy); err != nil {
		return nil, fmt.Errorf("sweep: bench history: unrecognized JSON: %w", err)
	}
	if legacy.Trials == 0 && legacy.Events == 0 {
		// An object that is neither a history nor a plausible report
		// (e.g. {}): start fresh rather than carry a zero entry.
		return &BenchHistory{}, nil
	}
	return &BenchHistory{Runs: []BenchRun{{Report: &legacy}}}, nil
}

// Append adds a run to the end of the history.
func (h *BenchHistory) Append(run BenchRun) {
	h.Runs = append(h.Runs, run)
}

// Last returns the newest run, or nil for an empty history.
func (h *BenchHistory) Last() *BenchRun {
	if len(h.Runs) == 0 {
		return nil
	}
	return &h.Runs[len(h.Runs)-1]
}

// Baseline returns the newest earlier run measured on the same host as
// the newest run, or nil when there is none (or the newest run has no
// host fingerprint).
func (h *BenchHistory) Baseline() *BenchRun {
	last := h.Last()
	if last == nil || last.Host == nil {
		return nil
	}
	for i := len(h.Runs) - 2; i >= 0; i-- {
		if r := &h.Runs[i]; r.Host != nil && *r.Host == *last.Host && r.Report != nil {
			return r
		}
	}
	return nil
}

// Regressions compares the newest run against its Baseline and reports
// every metric that moved the wrong way by more than tol (a fraction:
// 0.25 flags a >25% move). Throughput regresses by falling; per-event
// and per-chunk costs regress by rising. When the two runs used
// different sizing (steps/trials/parallelism), wall-clock throughput is
// not comparable and only the per-unit kernel and fabric costs are
// checked. With no baseline there is nothing to compare and nil is
// returned.
func (h *BenchHistory) Regressions(tol float64) []string {
	base := h.Baseline()
	if base == nil {
		return nil
	}
	was, now := base.Report, h.Last().Report
	if now == nil {
		return nil
	}
	var out []string
	costRose := func(name string, old, cur float64) {
		if old > 0 && cur > old*(1+tol) {
			out = append(out, fmt.Sprintf("%s rose %.0f%% (%.2f -> %.2f)",
				name, 100*(cur/old-1), old, cur))
		}
	}
	rateFell := func(name string, old, cur float64) {
		if old > 0 && cur < old*(1-tol) {
			out = append(out, fmt.Sprintf("%s fell %.0f%% (%.2f -> %.2f)",
				name, 100*(1-cur/old), old, cur))
		}
	}
	sameShape := was.Steps == now.Steps && was.Trials == now.Trials &&
		was.Parallelism == now.Parallelism
	if sameShape {
		rateFell("trials/sec (sequential)", was.TrialsPerSecSequential, now.TrialsPerSecSequential)
		rateFell("trials/sec (parallel)", was.TrialsPerSecParallel, now.TrialsPerSecParallel)
	}
	costRose("ns/event", was.NsPerEvent, now.NsPerEvent)
	costRose("allocs/event", was.AllocsPerEvent, now.AllocsPerEvent)
	costRose("fabric ns/chunk", was.FabricNsPerChunk, now.FabricNsPerChunk)
	// The flow-vs-chunk speedup is a wall-clock ratio on a fixed
	// workload, so it is shape-independent; scenarios are matched by
	// name so adding or reordering scenarios never mispairs runs.
	for _, cur := range now.FlowVsChunk {
		for _, old := range was.FlowVsChunk {
			if old.Scenario == cur.Scenario {
				rateFell(fmt.Sprintf("flow-vs-chunk speedup (%s)", cur.Scenario),
					old.Speedup, cur.Speedup)
			}
		}
	}
	return out
}

// WriteJSON writes the history as indented JSON.
func (h *BenchHistory) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h)
}
