package sweep

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func benchReport(nsPerEvent float64) *BenchReport {
	return &BenchReport{
		GOMAXPROCS: 8, Parallelism: 4, Trials: 8, Steps: 600, Seed: 1,
		SequentialSec: 4, ParallelSec: 1.2,
		TrialsPerSecSequential: 2, TrialsPerSecParallel: 6.7, Speedup: 3.3,
		Events: 1e6, NsPerEvent: nsPerEvent, AllocsPerEvent: 0.01,
		FabricChunks: 8192, FabricNsPerChunk: 400,
	}
}

func TestBenchHistoryRoundTrip(t *testing.T) {
	h := &BenchHistory{}
	h.Append(BenchRun{GitSHA: "abc1234", Date: "2026-08-01", Report: benchReport(250)})
	h.Append(BenchRun{GitSHA: "def5678", Date: "2026-08-08", Report: benchReport(260)})
	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 {
		t.Fatalf("want 2 runs after round trip, got %d", len(got.Runs))
	}
	if got.Last().GitSHA != "def5678" || got.Last().Report.NsPerEvent != 260 {
		t.Fatalf("last run corrupted: %+v", got.Last())
	}
}

func TestBenchHistoryMigratesLegacyReport(t *testing.T) {
	var buf bytes.Buffer
	if err := benchReport(250).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := LoadBenchHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Runs) != 1 {
		t.Fatalf("legacy report should migrate to 1 run, got %d", len(h.Runs))
	}
	if h.Runs[0].GitSHA != "" || h.Runs[0].Date != "" {
		t.Fatalf("migrated run should have no sha/date: %+v", h.Runs[0])
	}
	if h.Runs[0].Report == nil || h.Runs[0].Report.Trials != 8 {
		t.Fatalf("migrated report lost fields: %+v", h.Runs[0].Report)
	}
}

func TestBenchHistoryEmptyAndGarbageInput(t *testing.T) {
	h, err := LoadBenchHistory(strings.NewReader(""))
	if err != nil || len(h.Runs) != 0 {
		t.Fatalf("empty input: got %v, %d runs", err, len(h.Runs))
	}
	h, err = LoadBenchHistory(strings.NewReader("{}"))
	if err != nil || len(h.Runs) != 0 {
		t.Fatalf("empty object: got %v, %d runs", err, len(h.Runs))
	}
	if _, err := LoadBenchHistory(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage input should fail to load")
	}
}

var benchHost = &BenchHost{CPUModel: "Test CPU", NProc: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0"}

func TestBenchHistoryRegressions(t *testing.T) {
	h := &BenchHistory{}
	h.Append(BenchRun{Host: benchHost, Report: benchReport(250)})
	if regs := h.Regressions(0.25); regs != nil {
		t.Fatalf("single run cannot regress: %v", regs)
	}

	// Within tolerance: no flags.
	h.Append(BenchRun{Host: benchHost, Report: benchReport(280)})
	if regs := h.Regressions(0.25); len(regs) != 0 {
		t.Fatalf("12%% ns/event rise should pass at 25%% tolerance: %v", regs)
	}

	// Kernel cost doubles and parallel throughput halves: both flagged.
	bad := benchReport(500)
	bad.TrialsPerSecParallel = 3
	h.Append(BenchRun{Host: benchHost, Report: bad})
	regs := h.Regressions(0.25)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %v", regs)
	}
	joined := strings.Join(regs, "\n")
	if !strings.Contains(joined, "ns/event") || !strings.Contains(joined, "trials/sec (parallel)") {
		t.Fatalf("unexpected regression set: %v", regs)
	}

	// Different sizing: throughput is incomparable, only per-unit costs count.
	resized := benchReport(500)
	resized.Steps = 1200
	resized.TrialsPerSecParallel = 1
	h.Append(BenchRun{Host: benchHost, Report: resized})
	if regs := h.Regressions(0.25); len(regs) != 0 {
		t.Fatalf("resized run should not flag throughput: %v", regs)
	}
}

// A run is compared only against the newest earlier run from the same
// host; runs from other hosts, and runs recorded without a host, are
// skipped.
func TestBenchHistoryComparesSameHostOnly(t *testing.T) {
	other := *benchHost
	other.CPUModel = "Other CPU"
	h := &BenchHistory{}
	h.Append(BenchRun{Report: benchReport(100)}) // legacy: no host
	h.Append(BenchRun{Host: benchHost, Report: benchReport(250)})
	h.Append(BenchRun{GitSHA: "fast", Host: &other, Report: benchReport(100)})
	h.Append(BenchRun{Host: benchHost, Report: benchReport(280)})
	if base := h.Baseline(); base == nil || base.Report.NsPerEvent != 250 {
		t.Fatalf("baseline %+v, want the earlier same-host run", base)
	}
	if regs := h.Regressions(0.25); len(regs) != 0 {
		t.Fatalf("12%% rise vs the same host flagged, or another host compared: %v", regs)
	}

	h.Append(BenchRun{Host: &BenchHost{CPUModel: "New CPU"}, Report: benchReport(900)})
	if base := h.Baseline(); base != nil {
		t.Fatalf("first run on a new host has baseline %+v", base)
	}
	if regs := h.Regressions(0.25); regs != nil {
		t.Fatalf("first run on a new host flagged: %v", regs)
	}

	h.Append(BenchRun{Report: benchReport(900)})
	if base := h.Baseline(); base != nil {
		t.Fatalf("run without a host has baseline %+v", base)
	}
}

// TestCommittedBenchHistoryLoads reads the repository's own
// BENCH_sweep.json. Its older runs carry fields no longer in
// BenchReport (the retired "shard_scale" curve); the history must still
// parse, a new run must still find its same-host baseline, and the next
// rewrite drops the retired fields.
func TestCommittedBenchHistoryLoads(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"shard_scale"`)) {
		t.Fatal("BENCH_sweep.json has no shard_scale entries; the retired-field case is vacuous")
	}
	h, err := LoadBenchHistory(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	committed := len(h.Runs)
	if committed == 0 {
		t.Fatal("no runs loaded")
	}
	for i, r := range h.Runs {
		if r.Report == nil || r.Report.Events == 0 {
			t.Fatalf("run %d lost its report: %+v", i, r)
		}
	}

	h.Append(BenchRun{GitSHA: "base", Host: benchHost, Report: benchReport(250)})
	h.Append(BenchRun{GitSHA: "next", Host: benchHost, Report: benchReport(260)})
	if base := h.Baseline(); base == nil || base.GitSHA != "base" {
		t.Fatalf("baseline %+v, want the earlier same-host run", base)
	}
	if regs := h.Regressions(0.25); len(regs) != 0 {
		t.Fatalf("4%% rise flagged: %v", regs)
	}

	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"shard_scale"`)) {
		t.Fatal("rewritten history still carries shard_scale")
	}
	again, err := LoadBenchHistory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Runs) != committed+2 {
		t.Fatalf("rewritten history has %d runs, want %d", len(again.Runs), committed+2)
	}
}

func TestMedianBenchReport(t *testing.T) {
	reps := []*BenchReport{benchReport(300), benchReport(100), benchReport(200)}
	for i, r := range reps {
		r.FlowVsChunk = []FlowVsChunkPoint{{Scenario: "s", ChunkSec: float64(3 - i), FlowSec: 1, Speedup: float64(3 - i)}}
	}
	m := MedianBenchReport(reps)
	if m.NsPerEvent != 200 {
		t.Fatalf("median ns/event %g, want 200", m.NsPerEvent)
	}
	if got := m.FlowVsChunk[0].Speedup; got != 2 {
		t.Fatalf("median flow-vs-chunk speedup %g, want 2", got)
	}
	if reps[0].NsPerEvent != 300 || reps[0].FlowVsChunk[0].Speedup != 3 {
		t.Fatal("MedianBenchReport modified its input")
	}
	if m.Events != reps[0].Events || m.Trials != reps[0].Trials {
		t.Fatal("median lost the deterministic counts")
	}
}

func TestCurrentBenchHost(t *testing.T) {
	h := CurrentBenchHost()
	if h.CPUModel == "" || h.NProc < 1 || h.GOMAXPROCS < 1 || h.GoVersion == "" {
		t.Fatalf("incomplete fingerprint %+v", h)
	}
}
