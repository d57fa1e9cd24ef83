package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	tensorlights "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// outcome is the part of a trial's simulated statistics the output
// check compares: per-job JCTs, makespan, event count and tc
// reconfigurations.
type outcome struct {
	JCTs      []float64
	Makespan  float64
	Events    uint64
	Reconfigs int
}

// hash is a 64-bit digest of the outcome with every float at full
// precision, so any divergence of the simulation shows.
func (o outcome) hash() string {
	h := sha256.New()
	buf := strconv.AppendInt(nil, int64(len(o.JCTs)), 10)
	for _, j := range o.JCTs {
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, j, 'g', -1, 64)
	}
	buf = fmt.Appendf(buf, "|%s|%d|%d", strconv.FormatFloat(o.Makespan, 'g', -1, 64), o.Events, o.Reconfigs)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func facadeOutcome(r *tensorlights.Result) outcome {
	return outcome{JCTs: r.JCTs, Makespan: r.SimulatedSeconds, Events: r.Events, Reconfigs: r.TcReconfigurations}
}

// runSweep runs one trial through sweep.RunContext.
func runSweep(ctx context.Context, rc sweep.RunConfig) (outcome, error) {
	r, err := sweep.RunContext(ctx, rc)
	if err != nil {
		return outcome{}, err
	}
	return outcome{JCTs: r.JCTs, Makespan: r.SimTime, Events: r.Events, Reconfigs: r.Reconfigs}, nil
}

// simInput is one simulator workload's generated input. run is the
// timed trial through the program's public entry point; runTraced is
// the same trial with a Tracer attached, for the traced run only.
type simInput struct {
	// build constructs the workload's testbed from the inputs and checks
	// its shape, as the workload's set-up step.
	build     func() error
	run       func(ctx context.Context) (outcome, error)
	runTraced func(ctx context.Context, tr trace.Tracer) (outcome, error)
}

// simWorkload generates its input from the seed.
type simWorkload struct {
	name string
	gen  func(seed int64) (*simInput, error)
}

var simWorkloads = []simWorkload{
	{"grid21-chunk-rr", genGrid},
	{"openworld24-flow-fifo", func(seed int64) (*simInput, error) { return genOpenWorld(seed, tensorlights.FIFO) }},
	{"openworld24-flow-srsf", func(seed int64) (*simInput, error) { return genOpenWorld(seed, tensorlights.TLsSRSF) }},
	{"leafspine10k-flow", genLeafSpine10k},
}

func findSimWorkload(name string) *simWorkload {
	for i := range simWorkloads {
		if simWorkloads[i].name == name {
			return &simWorkloads[i]
		}
	}
	return nil
}

// checkHosts builds a testbed and checks its host count.
func checkHosts(cfg cluster.Config, want int) error {
	tb := cluster.NewTestbed(cfg)
	if got := len(tb.Fabric.Hosts()); got != want {
		return fmt.Errorf("testbed has %d hosts, want %d", got, want)
	}
	return nil
}

// gridSteps sizes the paper-grid trial: about 1.5 s of host time.
const gridSteps = 3000

// gridRunConfig is the sweep-level form of the façade's paper-grid
// experiment (21 ResNet-32 jobs, placement #1, TLs-RR, flat testbed).
// The traced run uses it to reach the public Tracer field the façade
// does not expose; the output check pins the two paths together.
func gridRunConfig(seed int64, steps int) (sweep.RunConfig, error) {
	p1, err := cluster.PlacementByIndex(1)
	if err != nil {
		return sweep.RunConfig{}, err
	}
	return sweep.RunConfig{
		Label: fmt.Sprintf("%s-p1", tensorlights.TLsRR),
		Cluster: cluster.Config{Seed: seed, Net: simnet.Config{
			Topology: simnet.TopologyConfig{Kind: simnet.TopologyFlat},
		}},
		Model:       dl.ResNet32,
		NumJobs:     21,
		LocalBatch:  4,
		TargetSteps: steps,
		Placement:   p1,
		TLs:         core.Config{Policy: core.PolicyRR},
	}, nil
}

func gridExperiment(seed int64, steps int) tensorlights.ExperimentConfig {
	return tensorlights.ExperimentConfig{
		Policy:         tensorlights.TLsRR,
		PlacementIndex: 1,
		Steps:          steps,
		Seed:           seed,
	}
}

func genGrid(seed int64) (*simInput, error) { return gridInput(seed, gridSteps) }

// gridInput is the paper-grid experiment at the given length; the
// daemon's pool jobs are the same experiment, shorter.
func gridInput(seed int64, steps int) (*simInput, error) {
	cfg := gridExperiment(seed, steps)
	rc, err := gridRunConfig(seed, steps)
	if err != nil {
		return nil, err
	}
	specs, err := cluster.GridSearchSpecs(rc.Cluster, rc.Model, rc.NumJobs, rc.LocalBatch, rc.TargetSteps, rc.Placement)
	if err != nil {
		return nil, err
	}
	if len(specs) != 21 {
		return nil, fmt.Errorf("grid: %d job specs, want 21", len(specs))
	}
	return &simInput{
		build: func() error { return checkHosts(rc.Cluster, 21) },
		run: func(ctx context.Context) (outcome, error) {
			r, err := tensorlights.RunExperimentContext(ctx, cfg)
			if err != nil {
				return outcome{}, err
			}
			return facadeOutcome(r), nil
		},
		runTraced: func(ctx context.Context, tr trace.Tracer) (outcome, error) {
			rc := rc
			rc.Tracer = tr
			return runSweep(ctx, rc)
		},
	}, nil
}

// The open-world workloads: 24 bursty arrivals of mixed PS, ring and
// tree jobs on the 12-host 2:1 leaf-spine with heterogeneous hosts,
// contention-aware placement and the flow fabric, under FIFO or
// TLs-SRSF. Under FIFO the trial's output repeats exactly across
// processes; under TLs-SRSF (and TLs-One) it does not, so the SRSF
// workload reports failed operations until that is fixed.
const (
	openWorldSteps = 10_000
	openWorldJobs  = 24
	openWorldHosts = 12
)

func genOpenWorld(seed int64, policy tensorlights.Policy) (*simInput, error) {
	cfg := tensorlights.ExperimentConfig{
		Policy:     policy,
		Steps:      openWorldSteps,
		Seed:       seed,
		FabricMode: simnet.ModeFlow,
		OpenWorld: &tensorlights.OpenWorldConfig{
			Arrivals:      "bursty",
			Heterogeneous: true,
			Jobs:          openWorldJobs,
		},
	}
	tc := sweep.OpenWorldTrialConfig{
		Steps:         openWorldSteps,
		Seed:          seed,
		Arrivals:      "bursty",
		Heterogeneous: true,
		Placement:     scheduler.PolicyContentionAware,
		PolicyName:    policy.String(),
		Jobs:          openWorldJobs,
		FabricMode:    simnet.ModeFlow,
	}
	// Generate the arrival stream the trial will draw, to check the
	// input has the advertised shape before anything is timed.
	arrivals, err := openWorldArrivals(seed, openWorldJobs, openWorldSteps/30)
	if err != nil {
		return nil, err
	}
	if len(arrivals) != openWorldJobs {
		return nil, fmt.Errorf("open world: %d arrivals, want %d", len(arrivals), openWorldJobs)
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].At < arrivals[i-1].At {
			return nil, fmt.Errorf("open world: arrival %d precedes arrival %d", i, i-1)
		}
	}
	hosts := cluster.Config{
		Hosts:            openWorldHosts,
		Seed:             seed,
		HostSpeedFactors: workload.TwoTierSpeeds(openWorldHosts, 3, 0.6),
		Net: simnet.Config{Mode: simnet.ModeFlow, Topology: simnet.TopologyConfig{
			Kind: simnet.TopologyLeafSpine, Racks: 3, UplinksPerLeaf: 2, Oversubscription: 2,
		}},
	}
	return &simInput{
		build: func() error { return checkHosts(hosts, openWorldHosts) },
		run: func(ctx context.Context) (outcome, error) {
			r, err := tensorlights.RunExperimentContext(ctx, cfg)
			if err != nil {
				return outcome{}, err
			}
			return facadeOutcome(r), nil
		},
		runTraced: func(ctx context.Context, tr trace.Tracer) (outcome, error) {
			tc := tc
			tc.Tracer = tr
			r, err := sweep.OpenWorldTrial(ctx, tc)
			if err != nil {
				return outcome{}, err
			}
			return outcome{JCTs: r.JCTs, Makespan: r.MakespanSec, Events: r.Events, Reconfigs: r.Reconfigs}, nil
		},
	}, nil
}

// openWorldArrivals draws the bursty mixed arrival stream the way the
// open-world trial does: the "open-arrivals" and "open-mix" streams of
// the seed's RNG.
func openWorldArrivals(seed int64, jobs, iters int) ([]workload.OpenArrival, error) {
	mix, err := workload.NamedMix("mixed", iters)
	if err != nil {
		return nil, err
	}
	proc, err := workload.ParseProcess("bursty", 1)
	if err != nil {
		return nil, err
	}
	return workload.GenerateOpen(workload.OpenConfig{Jobs: jobs, Arrivals: proc, Mix: mix}, sim.NewRNG(seed))
}

// The 10,240-host leaf-spine: 256 racks of 40 hosts, 16 ResNet-50 PS
// jobs, each confined to its own 640-host block of 16 racks (one PS and
// 639 workers), under TLs-One on the flow fabric.
const (
	ls10kHosts      = 10_240
	ls10kRacks      = 256
	ls10kJobs       = 16
	ls10kBlockHosts = ls10kHosts / ls10kJobs
	ls10kSteps      = 10
)

func ls10kCluster(seed int64) cluster.Config {
	return cluster.Config{
		Hosts: ls10kHosts,
		Seed:  seed,
		Net: simnet.Config{Mode: simnet.ModeFlow, Topology: simnet.TopologyConfig{
			Kind: simnet.TopologyLeafSpine, Racks: ls10kRacks, UplinksPerLeaf: 4,
		}},
	}
}

// ls10kSpecs places job j in host block j with its PS on a seeded host
// of the block and every other host of the block as a worker.
func ls10kSpecs(seed int64) []dl.JobSpec {
	rng := sim.NewRNG(seed).Stream("perfbench-ls10k")
	specs := make([]dl.JobSpec, ls10kJobs)
	for j := range specs {
		first := j * ls10kBlockHosts
		ps := first + rng.Intn(ls10kBlockHosts)
		workers := make([]int, 0, ls10kBlockHosts-1)
		for h := first; h < first+ls10kBlockHosts; h++ {
			if h != ps {
				workers = append(workers, h)
			}
		}
		specs[j] = dl.JobSpec{
			ID:                j,
			Name:              fmt.Sprintf("ls10k-%02d", j),
			Model:             dl.ResNet50,
			NumWorkers:        len(workers),
			LocalBatch:        4,
			TargetGlobalSteps: ls10kSteps,
			PSHost:            ps,
			PSPort:            5000 + j,
			WorkerHosts:       workers,
		}
	}
	return specs
}

func genLeafSpine10k(seed int64) (*simInput, error) {
	rc := sweep.RunConfig{
		Label:       "perfbench-leafspine10k",
		Cluster:     ls10kCluster(seed),
		Model:       dl.ResNet50,
		LocalBatch:  4,
		TargetSteps: ls10kSteps,
		TLs:         core.Config{Policy: core.PolicyOne},
		StaggerSec:  0.02,
		PSSpecs:     ls10kSpecs(seed),
	}
	run := func(ctx context.Context, tr trace.Tracer) (outcome, error) {
		rc := rc
		rc.Tracer = tr
		return runSweep(ctx, rc)
	}
	return &simInput{
		build:     func() error { return checkHosts(rc.Cluster, ls10kHosts) },
		run:       func(ctx context.Context) (outcome, error) { return run(ctx, nil) },
		runTraced: run,
	}, nil
}
