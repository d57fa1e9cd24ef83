package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/cpusim"
	"repro/internal/flownet"
	"repro/internal/policy"
	"repro/internal/qdisc"
	"repro/internal/scheduler"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Layer microbenchmarks: each times calls into one module's public
// functions on a fixed, seeded input with a fixed operation count, so
// two runs do identical work. Each reports the median of a few
// repetitions.

const layerReps = 5

// repeat runs f reps times and returns the median of its results.
func repeat(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// timed returns f's wall time in nanoseconds after levelling the heap,
// so one leg's garbage is not billed to the next.
func timed(f func()) float64 {
	runtime.GC()
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds())
}

// lcg is a tiny deterministic generator for benchmark inputs that must
// not draw from the program's own RNG streams.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 17)
}

func (g *lcg) float() float64 { return float64(g.next()%(1<<40)) / (1 << 40) }

const linkRate = 10e9 / 8 // bytes/sec of a 10 Gbps NIC

// newBandHTB is a TensorLights-style HTB with classes leaf classes, one
// per job, spread over six priority bands, each with a token rate so
// small that every class borrows from the link by priority.
func newBandHTB(classes int) *qdisc.HTB {
	h := qdisc.NewHTB(linkRate, 1)
	for i := 0; i < classes; i++ {
		id := qdisc.ClassID(i + 1)
		if err := h.AddClass(id, qdisc.HTBClassConfig{Rate: 1000, Ceil: linkRate, Prio: i % 6}); err != nil {
			panic(err)
		}
		h.Classifier().Add(qdisc.Filter{Pref: 1, Match: qdisc.MatchSrcPort(5000 + i), Target: id})
	}
	return h
}

// htbDequeue drains a backlog of 4096 chunks spread over the classes,
// advancing the clock as the link serializes them, and returns ns and
// heap allocations per successful Dequeue. Only the drain is timed.
func htbDequeue(classes int) (nsPerOp, allocsPerOp float64) {
	const backlog, rounds = 4096, 2
	h := newBandHTB(classes)
	chunks := make([]qdisc.Chunk, backlog)
	var ns, allocs float64
	now := 0.0
	for r := 0; r < rounds; r++ {
		for i := range chunks {
			c := &chunks[i]
			c.Reset()
			c.FlowID, c.SrcPort, c.Bytes = uint64(i), 5000+i%classes, 256<<10
			h.Enqueue(c, now)
		}
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for n := 0; n < backlog; {
			c := h.Dequeue(now)
			if c == nil {
				now = h.ReadyAt(now)
				continue
			}
			now += float64(c.Bytes) / linkRate
			n++
		}
		ns += float64(time.Since(start).Nanoseconds())
		allocs += memSince(&before).allocs
	}
	return ns / (rounds * backlog), allocs / (rounds * backlog)
}

// pfifoEnqDeq is ns per Enqueue+Dequeue pair through a pfifo holding a
// standing backlog of 64 chunks.
func pfifoEnqDeq() float64 {
	const ops, standing = 1 << 20, 64
	p := qdisc.NewPFIFO(1 << 20)
	chunks := make([]qdisc.Chunk, standing+1)
	for i := 0; i < standing; i++ {
		chunks[i].Bytes = 1500
		p.Enqueue(&chunks[i], 0)
	}
	spare := &chunks[standing]
	spare.Bytes = 1500
	return timed(func() {
		for i := 0; i < ops; i++ {
			p.Enqueue(spare, float64(i))
			spare = p.Dequeue(float64(i))
		}
	}) / ops
}

// kernelHold is the classic hold model: depth events pending, each
// firing re-posts itself a random delay ahead, so every Step is one
// heap pop plus one push at that depth. Returns ns per Step.
func kernelHold(depth int) float64 {
	const steps = 1 << 18
	k := sim.NewKernel()
	g := lcg(depth)
	var fn func()
	fn = func() { k.PostAfter(1+g.float(), fn) }
	for i := 0; i < depth; i++ {
		k.Post(g.float(), fn)
	}
	return timed(func() {
		for i := 0; i < steps; i++ {
			k.Step()
		}
	}) / steps
}

// fabricNsPerChunk prices the simnet hot path: four cross-rack flows
// ECMP-sharing the single contended uplink of a 2:1-oversubscribed
// two-rack leaf-spine, so each chunk passes the source egress qdisc,
// the leaf uplink, the spine downlink and the destination ingress.
func fabricNsPerChunk(seed int64) float64 {
	const senders, flowBytes = 4, int64(2 << 30)
	var chunks float64
	ns := repeat(layerReps, func() float64 {
		k := sim.NewKernel()
		f := simnet.New(k, sim.NewRNG(seed), simnet.Config{Topology: simnet.TopologyConfig{
			Kind: simnet.TopologyLeafSpine, Racks: 2, UplinksPerLeaf: 1, Oversubscription: 2,
		}})
		for i := 0; i < 2*senders; i++ {
			f.AddHost(fmt.Sprintf("bench%d", i))
		}
		cb := f.Config().ChunkBytes
		chunks = float64(senders * ((flowBytes + cb - 1) / cb))
		return timed(func() {
			for i := 0; i < senders; i++ {
				f.Send(simnet.FlowSpec{Src: i, Dst: senders + i, SrcPort: i, DstPort: 1000 + i, Bytes: flowBytes})
			}
			k.Run(nil)
		})
	})
	return ns / chunks
}

// solveInstance is a seeded max-min instance: flows flows over
// flows/2+4 links, each flow crossing three links with a random band
// and weight — the shape of one connected component the flow fabric
// re-solves.
func solveInstance(flows int, seed uint64) ([]float64, []flownet.Flow) {
	g := lcg(seed)
	links := flows/2 + 4
	caps := make([]float64, links)
	for i := range caps {
		caps[i] = linkRate * (0.5 + g.float())
	}
	fs := make([]flownet.Flow, flows)
	for i := range fs {
		a := int(g.next() % uint64(links))
		b := (a + 1 + int(g.next()%uint64(links-1))) % links
		c := (b + 1 + int(g.next()%uint64(links-2))) % links
		if c == a {
			c = (c + 1) % links
		}
		fs[i] = flownet.Flow{Links: []int{a, b, c}, Weight: 1 + 3*g.float(), Band: int(g.next() % 6), BandLink: a}
	}
	return caps, fs
}

// flownetSolve is ns per Solve call on a reused Solver.
func flownetSolve(flows int) float64 {
	caps, fs := solveInstance(flows, uint64(flows))
	ops := max(10, (3<<20)/(flows*flows))
	var s flownet.Solver
	var rates []float64
	return repeat(layerReps, func() float64 {
		return timed(func() {
			for i := 0; i < ops; i++ {
				rates = s.Solve(caps, fs, rates)
			}
		}) / float64(ops)
	})
}

// engineFlow10k is ns per AddFlow-to-completion of a short flow while
// 10,000 long flows stay live on their own links: the probe's
// component is tiny, so the cost is the engine's per-event bookkeeping
// over every live flow.
func engineFlow10k() float64 {
	const live, ops = 10_000, 400
	k := sim.NewKernel()
	var done bool
	e := flownet.NewEngine(k, func(flownet.FlowID, any) { done = true })
	for i := 0; i < live; i++ {
		l := e.AddLink(linkRate)
		e.AddFlow(flownet.FlowID(i), []int{l}, -1, 0, 1, 1e18, nil)
	}
	probe := []int{e.AddLink(linkRate), e.AddLink(linkRate)}
	for at, ok := k.NextAt(); ok && at <= k.Now(); at, ok = k.NextAt() {
		k.Step() // the batched flush that solves the live flows
	}
	next := flownet.FlowID(live)
	return repeat(layerReps, func() float64 {
		return timed(func() {
			for i := 0; i < ops; i++ {
				done = false
				e.AddFlow(next, probe, probe[0], 0, 1, 1e6, nil)
				next++
				for !done && k.Step() {
				}
			}
		}) / ops
	})
}

// cpuReschedule is ns per reschedule of a processor-sharing CPU with
// 24 running tasks: each Submit and each Cancel re-arms the completion
// event once. A fresh CPU every 2048 ops keeps the kernel's queue of
// cancelled tickets from growing without bound.
func cpuReschedule() float64 {
	const tasks, ops, rounds = 24, 2048, 16
	return repeat(layerReps, func() float64 {
		var ns float64
		for r := 0; r < rounds; r++ {
			k := sim.NewKernel()
			c := cpusim.NewCPU(k, 8)
			for i := 0; i < tasks; i++ {
				c.Submit(1e9+float64(i), 1, nil)
			}
			ns += timed(func() {
				for i := 0; i < ops; i++ {
					c.Cancel(c.Submit(1, 1, nil))
				}
			})
		}
		return ns / (2 * ops * rounds)
	})
}

// srsfRank is ns per TLs-SRSF Rank of 24 contending jobs with a
// feedback collector attached.
func srsfRank() float64 {
	const jobs, ops = 24, 1 << 12
	p, err := policy.New("TLs-SRSF", policy.Params{Bands: 6, IntervalSec: 50})
	if err != nil {
		panic(err)
	}
	fb := policy.NewFeedback(sim.NewKernel(), policy.FeedbackConfig{})
	g := lcg(jobs)
	tmpl := make([]policy.Job, jobs)
	for i := range tmpl {
		tmpl[i] = policy.Job{
			ID: i, ArrivalSeq: i,
			UpdateBytes: int64(1e6 + g.next()%(200e6)),
			TargetSteps: 100 + int(g.next()%900),
			Progress:    int(g.next() % 100),
		}
	}
	work := make([]policy.Job, jobs)
	return repeat(layerReps, func() float64 {
		return timed(func() {
			for i := 0; i < ops; i++ {
				copy(work, tmpl)
				p.Rank(0, work, fb)
			}
		}) / ops
	})
}

// schedulerPlace is ns per contention-aware Place as 24 open-world
// arrivals fill the 12-host 2:1 leaf-spine; each round starts from an
// empty scheduler and only the Place calls are timed.
func schedulerPlace(seed int64) float64 {
	const jobs, rounds = 24, 256
	arrivals, err := openWorldArrivals(seed, jobs, openWorldSteps/30)
	if err != nil {
		panic(err)
	}
	cfg := scheduler.Config{
		Hosts: openWorldHosts,
		Topo: simnet.TopologyConfig{
			Kind: simnet.TopologyLeafSpine, Racks: 3, UplinksPerLeaf: 2, Oversubscription: 2,
		},
		Policy: scheduler.PolicyContentionAware,
	}
	return repeat(layerReps, func() float64 {
		var ns float64
		for r := 0; r < rounds; r++ {
			s, err := scheduler.New(cfg)
			if err != nil {
				panic(err)
			}
			ns += timed(func() {
				for _, a := range arrivals {
					if _, err := s.Place(a.Spec.SchedReq(), a.At); err != nil {
						panic(err)
					}
				}
			})
		}
		return ns / (jobs * rounds)
	})
}

// generatePerArrival is ns per arrival of the bursty mixed open-world
// generator.
func generatePerArrival(seed int64) float64 {
	const jobs = 4096
	return repeat(layerReps, func() float64 {
		return timed(func() {
			if _, err := openWorldArrivals(seed, jobs, openWorldSteps/30); err != nil {
				panic(err)
			}
		}) / jobs
	})
}

// testbedBuild10k is seconds to build the 10,240-host leaf-spine
// testbed: hosts, NICs, CPUs, racks and core links.
func testbedBuild10k(seed int64) float64 {
	return repeat(3, func() float64 {
		return timed(func() { cluster.NewTestbed(ls10kCluster(seed)) }) / 1e9
	})
}

// journalAppend is the median seconds of one fsynced journal append of
// a submitted record.
func journalAppend(dir string) (float64, error) {
	const appends = 32
	path := filepath.Join(dir, "journal-bench.jsonl")
	j, _, err := server.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	xs := make([]float64, appends)
	for i := range xs {
		cfg := daemonJob(i)
		start := time.Now()
		if err := j.Append(server.Record{T: "submitted", ID: fmt.Sprintf("j%d", i), Hash: "bench", Config: &cfg}); err != nil {
			j.Close()
			return 0, err
		}
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs), j.Close()
}

// serverSubmit is the median seconds of one in-process Submit — hash,
// dedup lookup, fsynced journal append, enqueue — on a server with no
// workers started, so nothing else competes.
func serverSubmit(dir string) (float64, error) {
	const submits = 32
	sub := filepath.Join(dir, "submit-bench")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(sub)
	s, err := server.New(server.Config{
		JournalPath: filepath.Join(sub, "journal.jsonl"),
		QueueDepth:  submits,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		return 0, err
	}
	defer s.Kill()
	xs := make([]float64, submits)
	for i := range xs {
		cfg := daemonJob(i)
		start := time.Now()
		if _, err := s.Submit(cfg, 0, "bench"); err != nil {
			return 0, err
		}
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs), nil
}

// layerMetrics runs every microbenchmark. tmp is a scratch directory
// for the journal legs.
func layerMetrics(seed int64, tmp string) (map[string]metric, error) {
	ns := func(v float64) metric { return metric{v, "ns"} }
	m := map[string]metric{}
	for _, c := range []int{4, 16, 64} {
		var allocs float64
		m[fmt.Sprintf("qdisc.htb_dequeue_ns.c%d", c)] = ns(repeat(layerReps, func() float64 {
			v, a := htbDequeue(c)
			allocs = a
			return v
		}))
		if c == 16 {
			m["qdisc.htb_dequeue_allocs.c16"] = metric{allocs, "count"}
		}
	}
	m["qdisc.pfifo_enqdeq_ns"] = ns(repeat(layerReps, pfifoEnqDeq))
	m["sim.post_pop_ns.d1k"] = ns(repeat(layerReps, func() float64 { return kernelHold(1 << 10) }))
	m["sim.post_pop_ns.d64k"] = ns(repeat(layerReps, func() float64 { return kernelHold(1 << 16) }))
	m["simnet.ns_per_chunk"] = ns(fabricNsPerChunk(seed))
	m["flownet.solve_ns.f8"] = ns(flownetSolve(8))
	m["flownet.solve_ns.f512"] = ns(flownetSolve(512))
	m["flownet.engine_flow_ns.f10k"] = ns(engineFlow10k())
	m["cpusim.reschedule_ns.t24"] = ns(cpuReschedule())
	m["policy.rank_ns.srsf_j24"] = ns(srsfRank())
	m["scheduler.place_ns.j24"] = ns(schedulerPlace(seed))
	m["workload.generate_ns_per_arrival"] = ns(generatePerArrival(seed))
	m["cluster.testbed_build_s.h10240"] = sec(testbedBuild10k(seed))
	journal, err := journalAppend(tmp)
	if err != nil {
		return nil, fmt.Errorf("journal leg: %w", err)
	}
	submit, err := serverSubmit(tmp)
	if err != nil {
		return nil, fmt.Errorf("submit leg: %w", err)
	}
	m["server.journal_append_sync_s"] = sec(journal)
	m["server.submit_s"] = sec(submit)
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
			return nil, fmt.Errorf("layer metric %s is %v", k, v.Value)
		}
	}
	return m, nil
}
