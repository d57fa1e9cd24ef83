package sweep

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// benchTrialConfigs builds n small placement-#1 FIFO trials on
// consecutive seeds — the replicate sweep's trial shape at test scale.
func benchTrialConfigs(n, steps int) []RunConfig {
	o := Options{Steps: steps, Seed: 1}
	o.fillDefaults()
	p1, _ := cluster.PlacementByIndex(1)
	rcs := make([]RunConfig, n)
	for i := range rcs {
		rc := o.baseRun(p1, core.PolicyFIFO)
		rc.Cluster.Seed = int64(1 + i)
		rc.Label = fmt.Sprintf("bench-seed%d", rc.Cluster.Seed)
		rcs[i] = rc
	}
	return rcs
}

// TestFlowVsChunk10kPlacement pins the 10,240-host bench workload's
// placement: job j owns the j-th block of 640 hosts, its PS on the
// block's first host and its workers on the other 639, and no host
// carries two jobs.
func TestFlowVsChunk10kPlacement(t *testing.T) {
	rc := flowVsChunk10kRun(1)
	specs := rc.PSSpecs
	if len(specs) != 16 {
		t.Fatalf("%d specs, want 16", len(specs))
	}
	owner := make(map[int]int, rc.Cluster.Hosts)
	claim := func(job, h int) {
		if prev, ok := owner[h]; ok {
			t.Fatalf("host %d in jobs %d and %d", h, prev, job)
		}
		owner[h] = job
	}
	for j, sp := range specs {
		if sp.ID != j || sp.PSHost != 640*j {
			t.Fatalf("job %d: ID %d, PS host %d; want PS host %d", j, sp.ID, sp.PSHost, 640*j)
		}
		if sp.NumWorkers != 639 || len(sp.WorkerHosts) != 639 {
			t.Fatalf("job %d: %d workers (%d hosts), want 639", j, sp.NumWorkers, len(sp.WorkerHosts))
		}
		claim(j, sp.PSHost)
		for i, h := range sp.WorkerHosts {
			if h != sp.PSHost+1+i {
				t.Fatalf("job %d: worker %d on host %d, want %d", j, i, h, sp.PSHost+1+i)
			}
			claim(j, h)
		}
	}
	if len(owner) != rc.Cluster.Hosts {
		t.Fatalf("%d hosts placed, want all %d", len(owner), rc.Cluster.Hosts)
	}
}

// BenchmarkTrial measures one full simulation trial (the unit the
// Engine fans out) and reports kernel events/sec.
func BenchmarkTrial(b *testing.B) {
	rcs := benchTrialConfigs(1, 300)
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(rcs[0])
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkFabricChunk measures the routed simnet hot path — chunks
// served through a contended, oversubscribed leaf-spine core link (the
// scenario measureFabricBench records into BENCH_sweep.json).
func BenchmarkFabricChunk(b *testing.B) {
	b.ReportAllocs()
	var chunks uint64
	for i := 0; i < b.N; i++ {
		n, _ := measureFabricBench(1)
		chunks += n
	}
	b.ReportMetric(float64(chunks)/b.Elapsed().Seconds(), "chunks/sec")
}

// TestFabricChunkPooledAllocs pins the chunk fabric's steady-state
// allocation behavior: once a warm-up burst has primed the chunk free
// list and the kernel's event pool, pushing further bursts through the
// same fabric must not allocate per chunk.
func TestFabricChunkPooledAllocs(t *testing.T) {
	const flowBytes = int64(32 << 20)
	k := sim.NewKernel()
	f := simnet.New(k, sim.NewRNG(1), simnet.Config{})
	f.AddHost("src")
	f.AddHost("dst")
	send := func() {
		f.Send(simnet.FlowSpec{Src: 0, Dst: 1, SrcPort: 1, DstPort: 100, Bytes: flowBytes})
		k.Run(nil)
	}
	send() // warm-up: grows the pools to the burst's working set
	chunks := float64((flowBytes + f.Config().ChunkBytes - 1) / f.Config().ChunkBytes)
	perChunk := testing.AllocsPerRun(3, send) / chunks
	if perChunk > 0.1 {
		t.Errorf("steady-state fabric allocates %.3f allocs/chunk, want ~0 (pooled)", perChunk)
	}
}

// BenchmarkSweepSequential runs a 4-trial grid through the legacy
// sequential path.
func BenchmarkSweepSequential(b *testing.B) {
	rcs := benchTrialConfigs(4, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMany(rcs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same grid on the parallel Engine at
// parallelism 4. The ratio to BenchmarkSweepSequential is the Engine's
// speedup on this machine (bounded by GOMAXPROCS).
func BenchmarkSweepParallel(b *testing.B) {
	rcs := benchTrialConfigs(4, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunMany(rcs, 4); err != nil {
			b.Fatal(err)
		}
	}
}
