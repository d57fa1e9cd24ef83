package flownet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomScenario builds a bounded random solver input from a seed.
func randomScenario(rng *rand.Rand) ([]float64, []Flow) {
	nLinks := 1 + rng.Intn(12)
	caps := make([]float64, nLinks)
	for i := range caps {
		switch rng.Intn(10) {
		case 0:
			caps[i] = 0 // down link
		case 1:
			caps[i] = rng.Float64() * 1e-3 // nearly dead
		default:
			caps[i] = 1 + rng.Float64()*1e10
		}
	}
	nFlows := rng.Intn(24)
	flows := make([]Flow, nFlows)
	for i := range flows {
		nl := rng.Intn(4)
		links := make([]int, 0, nl)
		seen := make(map[int]bool)
		for j := 0; j < nl; j++ {
			l := rng.Intn(nLinks)
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
		bandLink := -1
		if len(links) > 0 && rng.Intn(2) == 0 {
			bandLink = links[0]
		}
		flows[i] = Flow{
			Links:    links,
			Weight:   float64(1+rng.Intn(5)) * (0.5 + rng.Float64()),
			Band:     rng.Intn(3),
			BandLink: bandLink,
		}
	}
	return caps, flows
}

// checkInvariants asserts the solver's documented contract on one
// solved scenario.
func checkInvariants(t *testing.T, caps []float64, flows []Flow, rates []float64) {
	t.Helper()
	if len(rates) != len(flows) {
		t.Fatalf("rates len %d != flows len %d", len(rates), len(flows))
	}
	// Per-link capacity: sum of allocations never exceeds capacity
	// (modulo the solver's stated fp slack).
	alloc := make([]float64, len(caps))
	for i, fl := range flows {
		if rates[i] < 0 {
			t.Fatalf("flow %d negative rate %g", i, rates[i])
		}
		if len(fl.Links) == 0 && rates[i] != 0 {
			t.Fatalf("linkless flow %d got rate %g", i, rates[i])
		}
		for _, l := range fl.Links {
			alloc[l] += rates[i]
		}
	}
	for l, a := range alloc {
		c := caps[l]
		if c < 0 {
			c = 0
		}
		if a > c+c*1e-6+1e-3 {
			t.Fatalf("link %d oversubscribed: alloc %g > cap %g", l, a, c)
		}
	}
	// Bottleneck: every flow with links crosses at least one saturated
	// link — it could not be sped up without displacing someone.
	for i, fl := range flows {
		if len(fl.Links) == 0 {
			continue
		}
		bottlenecked := false
		for _, l := range fl.Links {
			c := caps[l]
			if c < 0 {
				c = 0
			}
			if alloc[l] >= c-c*1e-6-1e-2 {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			t.Fatalf("flow %d (rate %g, links %v) has no saturated link; alloc=%v caps=%v",
				i, rates[i], fl.Links, alloc, caps)
		}
	}
}

func TestQuickSolverInvariants(t *testing.T) {
	var s Solver
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		caps, flows := randomScenario(rng)
		rates := s.Solve(caps, flows, nil)
		checkInvariants(t, caps, flows, rates)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSolverDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		caps, flows := randomScenario(rng)
		var s1, s2 Solver
		r1 := s1.Solve(caps, flows, nil)
		r2 := s2.Solve(caps, flows, nil)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("seed %d: nondeterministic rates at flow %d: %g vs %g", seed, i, r1[i], r2[i])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMutationConservation drives random add/remove/reprioritize
// sequences through a shared Solver and checks that every intermediate
// allocation honors the invariants, and that the total allocation on
// each resolve equals a from-scratch solve of the same state (the
// solver is stateless across calls, so incremental use must conserve
// the allocation exactly).
func TestQuickMutationConservation(t *testing.T) {
	var shared Solver
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		caps, pool := randomScenario(rng)
		if len(pool) == 0 {
			return true
		}
		live := make([]Flow, 0, len(pool))
		for step := 0; step < 20; step++ {
			switch rng.Intn(3) {
			case 0: // add
				if len(pool) > 0 {
					live = append(live, pool[rng.Intn(len(pool))])
				}
			case 1: // remove
				if len(live) > 0 {
					i := rng.Intn(len(live))
					live = append(live[:i], live[i+1:]...)
				}
			case 2: // reprioritize
				if len(live) > 0 {
					live[rng.Intn(len(live))].Band = rng.Intn(3)
				}
			}
			incr := append([]float64(nil), shared.Solve(caps, live, nil)...)
			checkInvariants(t, caps, live, incr)
			fresh := Solve(caps, live)
			var sumI, sumF float64
			for i := range incr {
				sumI += incr[i]
				sumF += fresh[i]
				if incr[i] != fresh[i] {
					t.Fatalf("seed %d step %d: scratch-reuse rate differs at flow %d: %g vs %g",
						seed, step, i, incr[i], fresh[i])
				}
			}
			if math.Abs(sumI-sumF) > 1e-9*(1+math.Abs(sumF)) {
				t.Fatalf("seed %d step %d: total allocation not conserved: %g vs %g", seed, step, sumI, sumF)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSolve decodes an arbitrary byte string into a solver scenario,
// asserts the solver contract and requires the rates to match the
// reference solver bit for bit. Wired into `make fuzz`; seed corpus in
// testdata/fuzz/FuzzSolve.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 100, 0, 1, 1, 0, 0, 0})
	f.Add([]byte{2, 10, 200, 2, 1, 0, 0, 0, 2, 1, 0, 1, 1, 1})
	f.Add([]byte{3, 0, 50, 255, 3, 2, 0, 1, 2, 1, 0, 9, 1, 2, 0, 1, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		caps, flows := decodeScenario(data)
		if len(caps) == 0 {
			return
		}
		rates := Solve(caps, flows)
		checkInvariants(t, caps, flows, rates)
		requireSameBits(t, "fuzz input", rates, refSolve(caps, flows))
	})
}

// decodeScenario maps fuzz bytes onto a scenario: byte 0 is the link
// count (1..16), the next nLinks bytes are capacities (0 stays 0 — a
// down link — otherwise scaled up), and each following record of
// 2+nl bytes is one flow: [nLinks' nl | meta byte | nl link refs]. The
// meta byte's low nibble is the weight in halves, bits 4-5 the band,
// bit 6 keeps repeated link refs and bit 7 gates the flow at its first
// link.
func decodeScenario(data []byte) ([]float64, []Flow) {
	if len(data) == 0 {
		return nil, nil
	}
	nLinks := int(data[0])%16 + 1
	data = data[1:]
	caps := make([]float64, nLinks)
	for i := 0; i < nLinks; i++ {
		var b byte
		if len(data) > 0 {
			b = data[0]
			data = data[1:]
		}
		caps[i] = float64(b) * 1e6
	}
	var flows []Flow
	for len(data) >= 2 && len(flows) < 64 {
		nl := int(data[0]) % 4
		meta := data[1]
		data = data[2:]
		links := make([]int, 0, nl)
		seen := make(map[int]bool)
		for j := 0; j < nl && len(data) > 0; j++ {
			l := int(data[0]) % nLinks
			data = data[1:]
			if !seen[l] || meta&0x40 != 0 {
				seen[l] = true
				links = append(links, l)
			}
		}
		bandLink := -1
		if len(links) > 0 && meta&0x80 != 0 {
			bandLink = links[0]
		}
		flows = append(flows, Flow{
			Links:    links,
			Weight:   float64(meta&0x0f) * 0.5, // exercises the w<=0 default too
			Band:     int(meta>>4) % 4,
			BandLink: bandLink,
		})
	}
	return caps, flows
}
