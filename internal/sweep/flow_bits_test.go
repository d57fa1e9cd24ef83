package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/faults"
	"repro/internal/scheduler"
	"repro/internal/simnet"
)

// The flow fabric's outputs are bit-stable: performance work on
// internal/flownet and the kernel may not change one floating-point
// operation on a value that reaches a JCT. The flow-equivalence harness
// compares against the chunk fabric with a tolerance, so it cannot see
// a low-bit drift; these goldens pin every JCT, the makespan and the
// kernel's fired-event count at full precision. A deliberate change to
// flow-mode arithmetic regenerates them (and perfbench's flow hashes)
// in the same change.

// flowBits renders a run's outputs at full precision.
func flowBits(jcts []float64, makespan float64, events uint64) string {
	var b strings.Builder
	for _, j := range jcts {
		b.WriteString(strconv.FormatFloat(j, 'g', -1, 64))
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "| %s | %d", strconv.FormatFloat(makespan, 'g', -1, 64), events)
	return b.String()
}

// TestFlowBitsOpenWorldFIFO pins a short open-world FIFO trial on the
// flow fabric: bursty mixed PS/ring/tree arrivals, heterogeneous hosts,
// contention-aware placement on the 12-host 2:1 leaf-spine.
func TestFlowBitsOpenWorldFIFO(t *testing.T) {
	res, err := OpenWorldTrial(context.Background(), OpenWorldTrialConfig{
		Steps: 3000, Seed: 11, Arrivals: "bursty", Heterogeneous: true,
		Placement: scheduler.PolicyContentionAware, PolicyName: "FIFO",
		Jobs: 12, FabricMode: simnet.ModeFlow,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "452.77649422824345 452.0168529290612 452.1650447499663 455.82383735421496 " +
		"317.80103696964665 192.62123774791485 138.93147344227026 138.46163207747938 " +
		"186.0178666970589 183.47887671771446 322.42450286322867 184.78313415158408 " +
		"| 460.4782282108529 | 53821"
	if got := flowBits(res.JCTs, res.MakespanSec, res.Events); got != want {
		t.Fatalf("open-world FIFO flow outputs changed:\n got: %s\nwant: %s", got, want)
	}
}

// TestFlowBitsLeafSpine pins a short leaf-spine PS run on the flow
// fabric: 4 ResNet-50 jobs, each confined to its own 4-rack block of a
// 320-host, 16-rack 2:1 fabric, under TLs-One, with core links
// repeatedly degraded to half rate. Besides the JCTs it pins every core link's
// busy fraction, which integrates each link's rate over time, so a
// one-ulp change to any link's rate or utilization shows.
func TestFlowBitsLeafSpine(t *testing.T) {
	const hosts, racks, jobs, steps = 320, 16, 4, 20
	block := hosts / jobs
	specs := make([]dl.JobSpec, jobs)
	for j := range specs {
		first := j * block
		ps := first + (7*j+3)%block
		var workers []int
		for h := first; h < first+block; h++ {
			if h != ps {
				workers = append(workers, h)
			}
		}
		specs[j] = dl.JobSpec{
			ID: j, Name: fmt.Sprintf("ls-%d", j), Model: dl.ResNet50,
			NumWorkers: len(workers), LocalBatch: 4, TargetGlobalSteps: steps,
			PSHost: ps, PSPort: 5000 + j, WorkerHosts: workers,
		}
	}
	// Short degrade windows rotate over eight core links all run long,
	// so capacities often change while a link's rate stays put.
	var degrades []faults.CoreLinkPlan
	for k := 0; k < 60; k++ {
		degrades = append(degrades, faults.CoreLinkPlan{
			Link: k % 8, AtSec: 0.3 + 0.43*float64(k), DurSec: 0.2, Factor: 0.5,
		})
	}
	res, err := RunContext(context.Background(), RunConfig{
		Label: "flow-bits-leafspine",
		Cluster: cluster.Config{Hosts: hosts, Seed: 5, Net: simnet.Config{
			Mode: simnet.ModeFlow,
			Topology: simnet.TopologyConfig{
				Kind: simnet.TopologyLeafSpine, Racks: racks, UplinksPerLeaf: 2, Oversubscription: 2,
			},
		}},
		Model: dl.ResNet50, LocalBatch: 4, TargetSteps: steps,
		TLs:        core.Config{Policy: core.PolicyOne},
		StaggerSec: 0.02,
		PSSpecs:    specs,
		Faults:     faults.Plan{CoreLinks: degrades},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The 64 core links' busy fractions enter as a digest of their
	// full-precision values.
	h := sha256.New()
	for _, ls := range res.LinkStats {
		fmt.Fprintf(h, "%d %s\n", ls.Link, strconv.FormatFloat(ls.Util, 'g', -1, 64))
	}
	got := flowBits(res.JCTs, res.SimTime, res.Events) + " | links " + hex.EncodeToString(h.Sum(nil))[:16]
	const want = "33.32017823673336 33.48520353931499 32.08788799749084 33.072451728809895 " +
		"| 33.64372301101611 | 1145 | links c646be2e52adb14b"
	if got != want {
		t.Fatalf("leaf-spine flow outputs changed:\n got: %s\nwant: %s", got, want)
	}
}
