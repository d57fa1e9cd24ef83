// Command perfbench is the repository's benchmark. It drives the
// simulator and the tlsimd daemon from outside, through their public
// entry points (the façade's RunExperimentContext, sweep.RunContext and
// sweep.OpenWorldTrial where the façade cannot express the workload,
// and server.New/Handler behind loopback HTTP), and prints every metric
// BENCHMARK.json names.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: layer microbenchmarks, a CPU profile
// attributed by module, event counts from a counting Tracer, spans
// around the benchmark's own calls, and the tracing overhead. Every
// trial's simulated statistics are hashed and compared with the
// reference recorded in reference.json; a mismatch, a daemon non-2xx
// response or a failed job counts as a failed operation.
//
// Inputs come from the seed. Trial k of a simulator workload runs input
// (seed+k) mod 64, one of 64 seeded inputs; the daemon walks a pool of
// 1024 seeded jobs from a seed-chosen offset. reference.json records
// every input's output; --gen-reference rewrites it.
//
// BENCHMARK.json lists grid21-chunk-rr and openworld24-flow-fifo.
// Three more run by name and under --workload all.
// openworld24-flow-srsf is the open-world workload under TLs-SRSF: its
// trial's output differs between processes (a known simulator defect),
// so it reports failed operations and correct=false; its FIFO sibling
// repeats exactly and is the one listed. The other two are left out
// because, on the shared 2-vCPU host the benchmark was tuned on, the
// host's speed changes by 20-40% for minutes at a time and moved their
// run-to-run spread too close to, or past, the largest bound
// BENCHMARK.json allows: over ten seeds, 0.11-0.32 of the median for
// daemon-closed-loop's latencies and 0.33 for leafspine10k-flow's
// trial time, against at most 0.16 for grid21-chunk-rr and 0.05 for
// openworld24-flow-fifo, whose 40-second runs cover all 64 inputs. The
// layers only they stress stay measured: every traced run times
// flownet's engine at 10k flows, the 10,240-host testbed build and the
// server's journal append and submit.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it start with
// '#' and repeat the metrics by name with units, the host fingerprint
// and, for traced runs, the layer predictions of predictions.json.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

//go:embed reference.json
var referenceJSON []byte

//go:embed predictions.json
var predictionsJSON []byte

// inputPool is how many seeded inputs each simulator workload draws
// from; reference.json records each one's output.
const inputPool = 64

var workloadNames = []string{"grid21-chunk-rr", "openworld24-flow-fifo", "openworld24-flow-srsf", "leafspine10k-flow", "daemon-closed-loop"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and keeps the first few failures.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) check(ok bool, detail string) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 8 {
			t.notes = append(t.notes, detail)
		}
	}
}

// references are the recorded trial hashes.
type references struct {
	Note      string              `json:"note"`
	Workloads map[string][]string `json:"workloads"`
	Daemon    []string            `json:"daemon"`
}

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &r, nil
}

// inputSeed maps the benchmark seed onto the recorded input pool.
func inputSeed(seed int64) int64 { return ((seed % inputPool) + inputPool) % inputPool }

// declared is the metric set BENCHMARK.json promises for one mode.
func declared(trace bool) (map[string]string, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}

// conform checks that a run reports exactly the declared metrics with
// the declared units.
func conform(ms map[string]metric, want map[string]string) error {
	var problems []string
	for name, unit := range want {
		got, ok := ms[name]
		switch {
		case !ok:
			problems = append(problems, "missing "+name)
		case got.Unit != unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", name, got.Unit, unit))
		}
	}
	for name := range ms {
		if _, ok := want[name]; !ok {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics do not match BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// scratchDir is a per-process directory under .bench_build for daemon
// journals and span dumps.
func scratchDir() (string, error) {
	dir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// runOne measures one workload in one mode.
func runOne(ctx context.Context, name string, seed int64, seconds float64, traced bool, ref *references, tmp string) (map[string]metric, *tally, error) {
	if name == "daemon-closed-loop" {
		if traced {
			return tracedDaemon(ctx, seed, seconds, ref, tmp)
		}
		return timedDaemon(seed, seconds, ref, tmp)
	}
	w := findSimWorkload(name)
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloadNames, ", "))
	}
	want := ref.Workloads[name]
	if len(want) != inputPool {
		return nil, nil, fmt.Errorf("reference.json has %d outputs for %s, want %d", len(want), name, inputPool)
	}
	if traced {
		return tracedSim(ctx, w, seed, seconds, want, tmp)
	}
	return timedSim(ctx, w, seed, seconds, want)
}

func printMetrics(name string, seed int64, traced bool, ms map[string]metric, t *tally) {
	mode := "timed"
	if traced {
		mode = "traced"
	}
	fmt.Printf("# %s seed %d (inputs from %d), %s run: %d operations checked, %d failed\n",
		name, seed, inputSeed(seed), mode, t.attempted, t.failed)
	for _, n := range t.notes {
		fmt.Printf("#   FAILED %s\n", n)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("#   %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func printPredictions() {
	var p struct {
		Predictions []struct {
			Layer     []string
			Moves     []string
			Workloads []string
			Still     []string
		}
	}
	if err := json.Unmarshal(predictionsJSON, &p); err != nil {
		fmt.Printf("# predictions.json: %v\n", err)
		return
	}
	fmt.Println("# predictions (layer -> end-to-end metric -> workload):")
	for _, r := range p.Predictions {
		moves := strings.Join(r.Moves, ",")
		if moves == "" {
			moves = "no end-to-end metric"
		}
		line := fmt.Sprintf("#   %s -> %s on %s", strings.Join(r.Layer, ","), moves, strings.Join(r.Workloads, ","))
		if len(r.Still) > 0 {
			line += "; no change on " + strings.Join(r.Still, ",")
		}
		fmt.Println(line)
	}
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "workload name, or all to run every workload timed and traced")
		seed         = fs.Int64("seed", 1, "input seed")
		seconds      = fs.Float64("seconds", 15, "measured seconds per run")
		traceMode    = fs.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		genRef       = fs.String("gen-reference", "", "recompute every recorded output and write them to this path")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(*workloadName, *seed, *seconds, *traceMode, *genRef); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traceMode int, genRef string) error {
	tmp, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if genRef != "" {
		return generateReferences(genRef)
	}
	if traceMode != 0 && traceMode != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceMode)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	ref, err := loadReferences()
	if err != nil {
		return err
	}
	fp, err := json.Marshal(hostFingerprint())
	if err != nil {
		return err
	}
	fmt.Printf("# host %s\n", fp)

	names := []string{name}
	modes := []bool{traceMode == 1}
	if name == "all" {
		names, modes = workloadNames, []bool{false, true}
	}
	out := report{Metrics: map[string]metric{}}
	for _, n := range names {
		for _, traced := range modes {
			want, err := declared(traced)
			if err != nil {
				return err
			}
			// A hung trial must not outlive the run's time limit.
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+90*time.Second)
			ms, t, err := runOne(ctx, n, seed, seconds, traced, ref, tmp)
			cancel()
			if err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			if err := conform(ms, want); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			printMetrics(n, seed, traced, ms, t)
			out.Attempted += t.attempted
			out.Failed += t.failed
			for k, v := range ms {
				if name == "all" {
					k = n + "/" + k
				}
				out.Metrics[k] = v
			}
		}
	}
	if traceMode == 1 || name == "all" {
		printPredictions()
	}
	if out.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
