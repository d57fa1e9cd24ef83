package flownet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// engineAPI is the surface the bitwise comparison drives; Engine and the
// reference engine both implement it.
type engineAPI interface {
	AddLink(capacity float64) int
	SetLinkCap(l int, capacity float64)
	AddFlow(id FlowID, links []int, bandLink, band int, weight, bytes float64, tag any)
	UpdateFlow(id FlowID, links []int, bandLink, band int, weight float64) bool
	RemoveFlow(id FlowID) bool
	Remaining(id FlowID) (float64, bool)
	Rate(id FlowID) (float64, bool)
	Sync()
	LinkServedBytes(l int) float64
	LinkBusySeconds(l int) float64
	ActiveFlows() int
}

type opKind int

const (
	opAdd opKind = iota
	opSetCap
	opUpdate
	opRemove
	opProbe
)

// progOp is one step of a random engine program.
type progOp struct {
	at       float64
	kind     opKind
	id       FlowID
	links    []int
	bandLink int
	band     int
	weight   float64
	bytes    float64
	link     int
	cap      float64
}

// randomCap draws a link capacity: mostly healthy, sometimes down (0 or
// negative) or nearly dead.
func randomCap(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return -1 - rng.Float64()*10
	case 2:
		return rng.Float64() * 1e-3
	default:
		return 1 + rng.Float64()*1e4
	}
}

// randomFlowShape draws a flow's links (repeats allowed when repeats
// is set), band link, band and weight.
func randomFlowShape(rng *rand.Rand, nLinks int, repeats, uniform bool) (links []int, bandLink, band int, weight float64) {
	nl := 1 + rng.Intn(4)
	for len(links) < nl {
		l := rng.Intn(nLinks)
		dup := false
		for _, x := range links {
			dup = dup || x == l
		}
		if dup && !repeats {
			nl--
			continue
		}
		links = append(links, l)
	}
	switch rng.Intn(4) {
	case 0:
		bandLink = -1
	case 1:
		bandLink = rng.Intn(nLinks) // possibly off the path
	default:
		bandLink = links[0]
	}
	if !uniform {
		band = rng.Intn(3)
	}
	switch rng.Intn(8) {
	case 0:
		weight = 0
	case 1:
		weight = -rng.Float64()
	default:
		weight = 0.1 + rng.Float64()*5
	}
	return links, bandLink, band, weight
}

// maxProgramFlows bounds the flows of one random program.
const maxProgramFlows = 16

// randomProgram builds a random engine program over nLinks links.
// Times are drawn from a coarse grid half the time, so several
// mutations often land on one instant and share a batched re-solve.
func randomProgram(rng *rand.Rand) (caps []float64, ops []progOp) {
	nLinks := 1 + rng.Intn(8)
	caps = make([]float64, nLinks)
	for i := range caps {
		caps[i] = randomCap(rng)
	}
	uniform := rng.Intn(2) == 0
	repeats := rng.Intn(3) == 0
	at := func() float64 {
		if rng.Intn(2) == 0 {
			return float64(rng.Intn(20))
		}
		return rng.Float64() * 20
	}
	nFlows := 1 + rng.Intn(maxProgramFlows)
	for i := 0; i < nFlows; i++ {
		links, bl, band, w := randomFlowShape(rng, nLinks, repeats, uniform)
		ops = append(ops, progOp{
			at: at(), kind: opAdd, id: FlowID(i + 1),
			links: links, bandLink: bl, band: band, weight: w,
			bytes: 1 + rng.Float64()*2e4,
		})
	}
	for i := rng.Intn(10); i > 0; i-- {
		ops = append(ops, progOp{at: at(), kind: opSetCap, link: rng.Intn(nLinks), cap: randomCap(rng)})
	}
	for i := rng.Intn(8); i > 0; i-- {
		links, bl, band, w := randomFlowShape(rng, nLinks, repeats, uniform)
		ops = append(ops, progOp{
			at: at(), kind: opUpdate, id: FlowID(1 + rng.Intn(nFlows)),
			links: links, bandLink: bl, band: band, weight: w,
		})
	}
	for i := rng.Intn(4); i > 0; i-- {
		ops = append(ops, progOp{at: at(), kind: opRemove, id: FlowID(1 + rng.Intn(nFlows))})
	}
	for i := rng.Intn(6); i > 0; i-- {
		ops = append(ops, progOp{at: at(), kind: opProbe})
	}
	// Every capacity comes back at the end, so stalled flows drain and
	// the run ends with every flow completed or removed.
	for l := range caps {
		ops = append(ops, progOp{at: 25, kind: opSetCap, link: l, cap: 1 + rng.Float64()*1e4})
	}
	return caps, ops
}

// runProgram drives one engine through the program and returns a log
// of every observable value as raw float bits: completion order and
// times, probed rates, remaining demands and link counters, and the
// kernel's fired-event count.
func runProgram(caps []float64, ops []progOp, mk func(k *sim.Kernel, onDone func(FlowID, any)) engineAPI) []string {
	k := sim.NewKernel()
	k.MaxEvents = 1_000_000
	var log []string
	var e engineAPI
	e = mk(k, func(id FlowID, _ any) {
		log = append(log, fmt.Sprintf("done %d at %x", id, math.Float64bits(k.Now())))
	})
	for _, c := range caps {
		e.AddLink(c)
	}
	probe := func(what string) {
		e.Sync()
		for l := range caps {
			log = append(log, fmt.Sprintf("%s link %d served %x busy %x", what, l,
				math.Float64bits(e.LinkServedBytes(l)), math.Float64bits(e.LinkBusySeconds(l))))
		}
		for id := FlowID(1); id <= maxProgramFlows; id++ {
			if rem, ok := e.Remaining(id); ok {
				r, _ := e.Rate(id)
				log = append(log, fmt.Sprintf("%s flow %d remaining %x rate %x", what, id,
					math.Float64bits(rem), math.Float64bits(r)))
			}
		}
	}
	for _, op := range ops {
		k.Post(op.at, func() {
			switch op.kind {
			case opAdd:
				e.AddFlow(op.id, op.links, op.bandLink, op.band, op.weight, op.bytes, nil)
			case opSetCap:
				e.SetLinkCap(op.link, op.cap)
			case opUpdate:
				ok := e.UpdateFlow(op.id, op.links, op.bandLink, op.band, op.weight)
				log = append(log, fmt.Sprintf("update %d %v", op.id, ok))
			case opRemove:
				ok := e.RemoveFlow(op.id)
				log = append(log, fmt.Sprintf("remove %d %v", op.id, ok))
			case opProbe:
				probe(fmt.Sprintf("probe@%x", math.Float64bits(op.at)))
			}
		})
	}
	k.Run(nil)
	probe("final")
	log = append(log, fmt.Sprintf("fired %d active %d", k.Fired(), e.ActiveFlows()))
	return log
}

func newEngineAPI(k *sim.Kernel, onDone func(FlowID, any)) engineAPI {
	return NewEngine(k, onDone)
}

func newRefEngineAPI(k *sim.Kernel, onDone func(FlowID, any)) engineAPI {
	return newRefEngine(k, onDone)
}

// TestEngineMatchesReferenceBits runs random flow programs — mixed and
// uniform bands, repeated links, zero and negative capacities,
// SetLinkCap, UpdateFlow, RemoveFlow, lone-flow and empty components —
// on the engine and on the reference engine it replaced, and requires
// every observable value to match bit for bit.
func TestEngineMatchesReferenceBits(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		caps, ops := randomProgram(rand.New(rand.NewSource(seed)))
		got := runProgram(caps, ops, newEngineAPI)
		want := runProgram(caps, ops, newRefEngineAPI)
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("seed %d: log line %d differs\n got: %s\nwant: %s", seed, i, g, w)
			}
		}
	}
}

// randomSolveScenario is randomScenario widened to the inputs the
// engine can hand the solver: repeated links, negative capacities,
// band links off the path and, half the time, a single band.
func randomSolveScenario(rng *rand.Rand) ([]float64, []Flow) {
	nLinks := 1 + rng.Intn(10)
	caps := make([]float64, nLinks)
	for i := range caps {
		caps[i] = randomCap(rng)
	}
	uniform := rng.Intn(2) == 0
	repeats := rng.Intn(3) == 0
	flows := make([]Flow, rng.Intn(12))
	for i := range flows {
		links, bl, band, w := randomFlowShape(rng, nLinks, repeats, uniform)
		if rng.Intn(10) == 0 {
			links = nil
		}
		flows[i] = Flow{Links: links, Weight: w, Band: band, BandLink: bl}
	}
	return caps, flows
}

// requireSameBits fails unless got and want are bitwise equal.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rates, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: rate %d is %v (%x), reference %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSolveMatchesReferenceBits compares Solve with the reference
// solver bit for bit, through one reused Solver so stale scratch from
// an earlier, larger solve would show.
func TestSolveMatchesReferenceBits(t *testing.T) {
	var s Solver
	var rates []float64
	for seed := int64(0); seed < 3000; seed++ {
		caps, flows := randomSolveScenario(rand.New(rand.NewSource(seed)))
		rates = s.Solve(caps, flows, rates[:0])
		requireSameBits(t, fmt.Sprintf("seed %d", seed), rates, refSolve(caps, flows))
	}
}
