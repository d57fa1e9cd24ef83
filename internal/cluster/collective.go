package cluster

import (
	"context"
	"fmt"

	"repro/internal/collective"
	"repro/internal/dl"
)

// CollectiveIDBase offsets collective job ids so they never collide
// with PS job ids (0..numJobs-1) in mixed clusters.
const CollectiveIDBase = 1000

// collectivePortBase spaces collective job ports well clear of PS ports
// (5000+id) and worker ports (30000+); job i claims port 7000+100*i and
// its ranks' receive ports follow it.
const collectivePortBase = 7000

// RingPlacement places numJobs all-reduce rings of ranksPerJob ranks
// each over numHosts hosts: job i's rank k runs on host
// (i*stride + k) mod numHosts. stride 0 aligns every ring on the same
// hosts (maximal NIC contention, the collective analogue of Table I's
// fully colocated placement #1); stride 1 staggers rings one host
// apart; stride >= ranksPerJob makes rings disjoint while they fit.
func RingPlacement(numJobs, ranksPerJob, numHosts, stride int) ([][]int, error) {
	if numJobs < 1 {
		return nil, fmt.Errorf("cluster: ring placement needs >=1 job, got %d", numJobs)
	}
	if ranksPerJob < 2 {
		return nil, fmt.Errorf("cluster: ring placement needs >=2 ranks per job, got %d", ranksPerJob)
	}
	if ranksPerJob > numHosts {
		return nil, fmt.Errorf("cluster: ring of %d ranks does not fit %d hosts",
			ranksPerJob, numHosts)
	}
	if stride < 0 {
		return nil, fmt.Errorf("cluster: negative ring stride %d", stride)
	}
	rings := make([][]int, numJobs)
	for i := 0; i < numJobs; i++ {
		ring := make([]int, ranksPerJob)
		for k := 0; k < ranksPerJob; k++ {
			ring[k] = (i*stride + k) % numHosts
		}
		rings[i] = ring
	}
	return rings, nil
}

// CollectiveSpecs builds one all-reduce job per ring, mirroring
// GridSearchSpecs for the collective workload: identical synchronous
// jobs (grid-search instances) differing only in placement and port.
func CollectiveSpecs(m dl.Model, rings [][]int, alg collective.Algorithm,
	localBatch, targetIters int) []collective.JobSpec {
	specs := make([]collective.JobSpec, len(rings))
	for i, ring := range rings {
		specs[i] = collective.JobSpec{
			ID:               CollectiveIDBase + i,
			Name:             fmt.Sprintf("allreduce-%02d", i),
			Model:            m,
			Algorithm:        alg,
			Hosts:            ring,
			LocalBatch:       localBatch,
			TargetIterations: targetIters,
			Port:             collectivePortBase + 100*i,
		}
	}
	return specs
}

// LaunchCollective creates the all-reduce jobs and schedules their
// starts staggerSec apart, mirroring Launch. onStart, if non-nil, fires
// at each job's start time — TensorLights hooks job arrivals here.
func (tb *Testbed) LaunchCollective(specs []collective.JobSpec, staggerSec float64,
	onStart func(*collective.Job)) ([]*collective.Job, error) {
	jobs := make([]*collective.Job, len(specs))
	for i, spec := range specs {
		j, err := collective.NewJob(tb.Env, spec)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		j := j
		cb := onStart
		tb.K.Post(tb.K.Now()+float64(i)*staggerSec, func() {
			j.Start()
			if cb != nil {
				cb(j)
			}
		})
	}
	return jobs, nil
}

// RunMixedToCompletion drives the kernel until every PS job and every
// collective job finishes or fails. maxEvents guards against runaway
// simulations (0 = default guard).
func (tb *Testbed) RunMixedToCompletion(jobs []*dl.Job, cjobs []*collective.Job, maxEvents uint64) {
	_ = tb.RunMixedToCompletionCtx(context.Background(), jobs, cjobs, maxEvents)
}

// ctxCheckEvery is how many kernel events fire between context polls in
// RunMixedToCompletionCtx. Polling a context is a synchronized channel
// peek; amortizing it keeps the ~ns/event hot loop unaffected while
// still bounding cancellation latency to a few thousand events.
const ctxCheckEvery = 4096

// RunMixedToCompletionCtx is RunMixedToCompletion with cancellation:
// when ctx is cancelled the kernel stops between events (the simulation
// state stays consistent — no event is half-fired) and the context's
// error is returned. A nil or never-cancelled ctx reproduces
// RunMixedToCompletion exactly, event for event.
func (tb *Testbed) RunMixedToCompletionCtx(ctx context.Context, jobs []*dl.Job, cjobs []*collective.Job, maxEvents uint64) error {
	if maxEvents == 0 {
		maxEvents = 500_000_000
	}
	if ctx == nil {
		ctx = context.Background()
	}
	tb.K.MaxEvents = maxEvents
	done := ctx.Done()
	cancelled := done != nil && ctx.Err() != nil
	var sinceCheck int
	// A job's terminal state is permanent, so the stop check keeps a
	// cursor into each list and never rescans jobs already seen done or
	// failed.
	var nextJob, nextCJob int
	tb.K.Run(func() bool {
		if cancelled {
			return true
		}
		if done != nil {
			sinceCheck++
			if sinceCheck >= ctxCheckEvery {
				sinceCheck = 0
				select {
				case <-done:
					cancelled = true
					return true
				default:
				}
			}
		}
		for ; nextJob < len(jobs); nextJob++ {
			if j := jobs[nextJob]; !j.Done() && !j.Failed() {
				return false
			}
		}
		for ; nextCJob < len(cjobs); nextCJob++ {
			if j := cjobs[nextCJob]; !j.Done() && !j.Failed() {
				return false
			}
		}
		return true
	})
	if cancelled {
		return ctx.Err()
	}
	return nil
}
