package sweep

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simnet"
	"repro/internal/workload"
)

// The acceptance contract: one arrival stream mixes PS and collective
// jobs, every job finishes, and JCTs are measured from arrival.
func TestOpenWorldTrialMixesKinds(t *testing.T) {
	res, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
		Steps: 300, Seed: 42, Arrivals: "poisson",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PSJobs == 0 || res.CollectiveJobs == 0 {
		t.Errorf("stream ran %d PS and %d collective jobs; want both kinds", res.PSJobs, res.CollectiveJobs)
	}
	if res.PSJobs+res.CollectiveJobs != len(res.JCTs) {
		t.Errorf("kind counts %d+%d do not cover %d arrivals",
			res.PSJobs, res.CollectiveJobs, len(res.JCTs))
	}
	for i, jct := range res.JCTs {
		if jct <= 0 {
			t.Errorf("job %d has non-positive JCT %g", i, jct)
		}
	}
	if res.AvgJCT <= 0 || res.MakespanSec <= 0 || res.Events == 0 {
		t.Errorf("degenerate aggregates: %+v", res)
	}
}

// Trace replay must run the whole built-in trace, whatever Jobs says.
func TestOpenWorldTrialTraceReplay(t *testing.T) {
	res, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
		Steps: 300, Seed: 42, Arrivals: "trace", Jobs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(workload.DemoTrace(10).Entries)
	if len(res.JCTs) != want {
		t.Errorf("trace replay ran %d jobs, want the whole trace (%d)", len(res.JCTs), want)
	}
	if res.PSJobs == 0 || res.CollectiveJobs == 0 {
		t.Errorf("demo trace ran %d PS and %d collective jobs; want both", res.PSJobs, res.CollectiveJobs)
	}
}

func TestOpenWorldTrialBursty(t *testing.T) {
	res, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
		Steps: 300, Seed: 42, Arrivals: "bursty", Jobs: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JCTs) != 6 {
		t.Errorf("ran %d jobs, want 6", len(res.JCTs))
	}
}

// Heterogeneous hosts (every third at 60% speed) must cost average JCT
// versus the otherwise-identical homogeneous run: the jobs are
// compute-bound enough that a slow host drags its barrier or ring.
func TestOpenWorldHeterogeneousSlower(t *testing.T) {
	base := OpenWorldTrialConfig{Steps: 300, Seed: 42, Arrivals: "poisson"}
	hom, err := OpenWorldTrial(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	het := base
	het.Heterogeneous = true
	slow, err := OpenWorldTrial(context.Background(), het)
	if err != nil {
		t.Fatal(err)
	}
	if slow.AvgJCT <= hom.AvgJCT {
		t.Errorf("heterogeneous avg JCT %.2f s not above homogeneous %.2f s",
			slow.AvgJCT, hom.AvgJCT)
	}
}

func TestOpenWorldTrialErrors(t *testing.T) {
	if _, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
		Steps: 300, Arrivals: "uniform",
	}); err == nil {
		t.Error("trial accepted an unknown arrival process")
	}
	if _, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
		Steps: 300, MixName: "chaos",
	}); err == nil {
		t.Error("trial accepted an unknown mix name")
	}
	if _, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
		Steps: 300, Arrivals: "trace",
		Trace: &workload.Trace{},
	}); err == nil {
		t.Error("trial accepted an empty trace")
	}
	bad := &workload.Trace{Entries: []workload.TraceEntry{{
		AtSec: 0, Kind: workload.KindPS, ModelName: "nope", Tasks: 3, LocalBatch: 4, Iterations: 5,
	}}}
	if _, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
		Steps: 300, Arrivals: "trace", Trace: bad,
	}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("trial accepted an unknown trace model: %v", err)
	}
}

func TestOpenWorldResultLookups(t *testing.T) {
	r := &OpenWorldResult{Rows: []OpenWorldRow{
		{Arrivals: "poisson", Hosts: "hom", Policy: "FIFO", AvgJCT: 10},
		{Arrivals: "poisson", Hosts: "het", Policy: "FIFO", AvgJCT: 15},
		{Arrivals: "poisson", Hosts: "hom", Policy: "TLs-RR", AvgJCT: 8},
		{Arrivals: "poisson", Hosts: "het", Policy: "TLs-RR", AvgJCT: 12},
	}}
	row, ok := r.Row("poisson", true, "FIFO")
	if !ok || row.AvgJCT != 15 {
		t.Errorf("Row lookup wrong: %+v %v", row, ok)
	}
	if _, ok := r.Row("bursty", false, "FIFO"); ok {
		t.Error("Row found a missing cell")
	}
	if s := r.HeteroSlowdown("poisson"); s <= 1.0 || s >= 2.0 {
		t.Errorf("HeteroSlowdown = %g, want (27/2)/(18/2) = 1.5", s)
	}
	if out := r.Render(); !strings.Contains(out, "heterogeneous hosts cost") {
		t.Error("Render omits the heterogeneity headline")
	}
}

// The trial must be cancellable: a pre-cancelled context returns an
// error instead of running the simulation to completion.
func TestOpenWorldTrialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OpenWorldTrial(ctx, OpenWorldTrialConfig{Steps: 300, Seed: 42}); err == nil {
		t.Error("pre-cancelled trial returned no error")
	}
}

// The bursty, heterogeneous, flow-fabric TLs-SRSF open-world trial
// must repeat exactly: tasks on one host's CPU can finish at the same
// instant, and their completions must fire in a fixed order rather than
// Go's randomized map order. These seeds gave a different output on
// nearly every run while cpusim kept its tasks in a map.
func TestOpenWorldSRSFRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine 24-job open-world trials")
	}
	for _, seed := range []int64{1, 2, 4} {
		cfg := OpenWorldTrialConfig{
			Steps: 10_000, Seed: seed, Arrivals: "bursty", Heterogeneous: true,
			PolicyName: "TLs-SRSF", Jobs: 24, FabricMode: simnet.ModeFlow,
		}
		var first *OpenWorldTrialResult
		for run := 0; run < 3; run++ {
			res, err := OpenWorldTrial(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(res.JCTs, first.JCTs) || res.Events != first.Events {
				t.Fatalf("seed %d run %d: JCTs %v events %d; run 0 gave %v events %d",
					seed, run, res.JCTs, res.Events, first.JCTs, first.Events)
			}
		}
	}
}
