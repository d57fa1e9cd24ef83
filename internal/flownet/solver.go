// Package flownet is an analytic flow-level network model: active
// transfers are fluid flows with a byte demand, and link bandwidth is
// shared by weighted progressive-filling max-min fairness with strict
// priority bands at each flow's source egress — the same allocation the
// chunk fabric's HTB/prio qdiscs converge to under sustained load, but
// computed in closed form. Rates change only on flow arrival, departure,
// priority change or link fault, so a simulation kernel can jump
// straight to the next flow completion instead of pumping per-chunk
// events. CASSINI (arXiv 2308.00852) and Wang et al. (arXiv 2002.10105)
// evaluate placement and interleaving decisions on exactly this kind of
// fluid bandwidth-sharing model.
package flownet

import (
	"math"
	"slices"
)

// Flow is one transfer demand presented to the solver.
type Flow struct {
	// Links are the IDs of the capacity-constrained links the flow
	// crosses, in path order. A flow with no links is degenerate and is
	// allocated zero rate.
	Links []int
	// Weight scales the flow's fair share on every link it crosses.
	// The fabric maps the per-flow socket window here: under backlogged
	// FIFO service a flow's throughput is proportional to its window,
	// which is the chunk fabric's source of persistent TCP unfairness.
	// Non-positive weights are treated as 1.
	Weight float64
	// Band is the flow's strict-priority band at BandLink; lower values
	// are served first (TensorLights green = 0, yellow = 1, ...).
	Band int
	// BandLink is the link at which Band competes — the source egress
	// in the fabric mapping, where tc installs the qdisc. Every flow
	// crossing an egress originates at that host, so priority applies
	// exactly where HTB enforces it; core and ingress links are
	// single-band FIFO in the chunk fabric and stay band-free here.
	// BandLink < 0 disables priority gating for the flow.
	BandLink int
}

// satEps is the absolute saturation slack in bytes/sec: residual
// capacities at or below cap*1e-9 + satEps count as saturated, which
// absorbs the floating-point residue of the filling arithmetic.
const satEps = 1e-6

// Solver computes max-min fair rates. The zero value is ready to use;
// reusing one Solver across calls reuses its scratch arrays, so
// steady-state solves allocate nothing.
type Solver struct {
	capRem  []float64
	wsum    []float64
	minBand []int64
	stamp   []uint64
	epoch   uint64
	touched []int

	// Per-flow scratch: w is the effective weight; live lists the
	// unfrozen flows in input order, and elig[j] marks live[j] eligible
	// in the current round. refs is Solve's pointer view of its input.
	w    []float64
	live []int
	elig []bool
	refs []*Flow
}

// grow sizes the per-link scratch to cover link IDs [0, n).
func (s *Solver) grow(n int) {
	if len(s.capRem) >= n {
		return
	}
	s.capRem = append(s.capRem, make([]float64, n-len(s.capRem))...)
	s.wsum = append(s.wsum, make([]float64, n-len(s.wsum))...)
	s.minBand = append(s.minBand, make([]int64, n-len(s.minBand))...)
	s.stamp = append(s.stamp, make([]uint64, n-len(s.stamp))...)
}

// touch initializes link l's residual capacity once per solve.
func (s *Solver) touch(l int, caps []float64) {
	if s.stamp[l] == s.epoch {
		return
	}
	s.stamp[l] = s.epoch
	c := caps[l]
	if c < 0 {
		c = 0
	}
	s.capRem[l] = c
	s.touched = append(s.touched, l)
}

// saturated reports whether link l has no meaningful residual capacity.
func (s *Solver) saturated(l int, caps []float64) bool {
	return s.capRem[l] <= caps[l]*1e-9+satEps
}

// Solve computes the weighted priority max-min allocation. caps[l] is
// link l's capacity (bytes/sec; <= 0 means down). Flows reference links
// by index into caps. The result is written into rates (grown as
// needed) and returned; rates[i] is flow i's allocation.
//
// Progressive filling with strict priority: a flow is eligible when no
// unfrozen flow with a lower band shares its BandLink. All eligible
// flows grow together, each at ds*Weight, until some link saturates;
// flows crossing a saturated link freeze at their current rate. When
// every flow gated behind a band has frozen, the next band becomes
// eligible and fills the residual capacity — matching HTB's
// work-conserving borrowing: green saturates first, yellow gets what is
// left. Each round freezes at least one flow, so the loop runs at most
// len(flows) rounds. The solution touches only links some flow crosses,
// so cost is independent of the total link count.
//
// Guarantees (the property-test contract):
//   - per link, the sum of allocated rates never exceeds its capacity;
//   - every flow with at least one link ends frozen against a saturated
//     link (its bottleneck) — no flow could be sped up without reducing
//     a flow of equal or lower band;
//   - the allocation is deterministic in the input order.
func (s *Solver) Solve(caps []float64, flows []Flow, rates []float64) []float64 {
	s.refs = s.refs[:0]
	for i := range flows {
		s.refs = append(s.refs, &flows[i])
	}
	return s.solve(caps, s.refs, rates)
}

// solve is Solve over flow pointers, so the engine can hand over the
// Flow embedded in each of its flow records without copying them.
//
// Every value that reaches rates is computed by the same floating-point
// operations, in the same order, as the textbook round structure
// documented on Solve; the shortcuts below only skip work whose outcome
// is already known:
//   - a lone flow with distinct links is solved in closed form;
//   - when every gated flow has the same band, all unfrozen flows are
//     eligible, so the per-round minimum-band passes are skipped;
//   - frozen flows drop out of the per-round scans;
//   - residual capacities are charged before rates grow, so growth and
//     the freeze check share one pass (neither reads the other).
func (s *Solver) solve(caps []float64, flows []*Flow, rates []float64) []float64 {
	n := len(flows)
	if cap(rates) < n {
		rates = make([]float64, n)
	}
	rates = rates[:n]
	if n == 1 && distinct(flows[0].Links) {
		rates[0] = loneRate(caps, flows[0])
		return rates
	}
	s.grow(len(caps))
	s.epoch++
	s.touched = s.touched[:0]
	s.w = s.w[:0]
	s.live = s.live[:0]

	// uniform: every gated flow competes in the same band, so none is
	// ever held back by a lower band.
	uniform, gated, band := true, false, 0
	for i, fl := range flows {
		rates[i] = 0
		w := fl.Weight
		if w <= 0 {
			w = 1
		}
		s.w = append(s.w, w)
		if len(fl.Links) == 0 {
			continue
		}
		s.live = append(s.live, i)
		for _, l := range fl.Links {
			s.touch(l, caps)
		}
		if fl.BandLink >= 0 {
			s.touch(fl.BandLink, caps)
			if !gated {
				gated, band = true, fl.Band
			} else if fl.Band != band {
				uniform = false
			}
		}
	}

	for len(s.live) > 0 {
		if !uniform {
			// Lowest unfrozen band per band link gates eligibility.
			for _, l := range s.touched {
				s.minBand[l] = math.MaxInt64
			}
			for _, i := range s.live {
				fl := flows[i]
				if fl.BandLink >= 0 && int64(fl.Band) < s.minBand[fl.BandLink] {
					s.minBand[fl.BandLink] = int64(fl.Band)
				}
			}
		}
		// Weight pressure per link from the eligible set.
		for _, l := range s.touched {
			s.wsum[l] = 0
		}
		s.elig = s.elig[:0]
		for _, i := range s.live {
			fl := flows[i]
			el := uniform || fl.BandLink < 0 || int64(fl.Band) == s.minBand[fl.BandLink]
			s.elig = append(s.elig, el)
			if !el {
				continue
			}
			w := s.w[i]
			for _, l := range fl.Links {
				s.wsum[l] += w
			}
		}
		// The common fill increment is limited by the tightest link.
		ds := math.MaxFloat64
		bottleneck := -1
		for _, l := range s.touched {
			if s.wsum[l] <= 0 {
				continue
			}
			if d := s.capRem[l] / s.wsum[l]; d < ds {
				ds = d
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			// No eligible flow crosses any link. Unreachable when the
			// eligible set is nonempty (every active flow has links);
			// freeze the remainder defensively rather than spin.
			break
		}
		if ds < 0 {
			ds = 0
		}
		for _, l := range s.touched {
			if s.wsum[l] > 0 {
				s.capRem[l] -= s.wsum[l] * ds
			}
		}
		// Grow the eligible flows and freeze those that hit a saturated
		// link, compacting the live list in place.
		kept := 0
		for j, i := range s.live {
			if s.elig[j] {
				rates[i] += s.w[i] * ds
				if s.crossesSaturated(flows[i].Links, caps) {
					continue
				}
			}
			s.live[kept] = i
			kept++
		}
		if kept == len(s.live) {
			// Floating-point slack left the bottleneck marginally above
			// the saturation threshold; freeze its flows directly so
			// every round retires at least one. Nothing was frozen, so
			// elig still lines up with live.
			kept = 0
			for j, i := range s.live {
				if s.elig[j] && slices.Contains(flows[i].Links, bottleneck) {
					continue
				}
				s.live[kept] = i
				kept++
			}
		}
		if kept == len(s.live) {
			kept = 0
			for j, i := range s.live {
				if !s.elig[j] {
					s.live[kept] = i
					kept++
				}
			}
		}
		s.live = s.live[:kept]
	}
	return rates
}

// crossesSaturated reports whether any of links is saturated.
func (s *Solver) crossesSaturated(links []int, caps []float64) bool {
	for _, l := range links {
		if s.saturated(l, caps) {
			return true
		}
	}
	return false
}

// loneRate is the allocation of a flow that is alone in its component
// and crosses each of its links once: the single progressive-filling
// round, written out. The fill increment is the smallest residual per
// unit weight, and the rate is weight times it — the same divide and
// multiply the round performs, so the result is bit-identical (w*(c/w)
// need not equal c). A flow whose every link gives an increment of at
// least MaxFloat64 (no finite bottleneck) gets 0, as the round's
// defensive freeze does.
func loneRate(caps []float64, fl *Flow) float64 {
	w := fl.Weight
	if w <= 0 {
		w = 1
	}
	ds := math.MaxFloat64
	found := false
	for _, l := range fl.Links {
		c := caps[l]
		if c < 0 {
			c = 0
		}
		if d := c / w; d < ds {
			ds, found = d, true
		}
	}
	if !found {
		return 0
	}
	if ds < 0 {
		ds = 0
	}
	// The round adds to a zeroed rate; 0 + x turns a -0 into +0.
	return 0 + w*ds
}

// distinct reports whether no link repeats in links.
func distinct(links []int) bool {
	for i, l := range links {
		if slices.Contains(links[i+1:], l) {
			return false
		}
	}
	return true
}

// Solve is the convenience entry point for one-shot solves (tests,
// tools); hot paths should hold a Solver to reuse its scratch.
func Solve(caps []float64, flows []Flow) []float64 {
	var s Solver
	return s.Solve(caps, flows, nil)
}
