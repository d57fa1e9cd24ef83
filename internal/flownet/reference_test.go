package flownet

// This file keeps the flow engine and max-min solver as they were before
// the exact-arithmetic fast paths (exact active-link set, closed-form
// lone-flow components, fused solver passes) as a test-only oracle.
// reference_prop_test.go drives both with the same random programs and
// requires every rate, remaining demand, completion time and per-link
// counter to match bit for bit, and FuzzSolve and the property tests
// compare the solvers. Only renames, and dropping accessors no test
// calls, separate it from the original code; do not edit it to follow
// later changes.

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// refSolver computes max-min fair rates. The zero value is ready to use;
// reusing one refSolver across calls reuses its scratch arrays, so
// steady-state solves allocate nothing.
type refSolver struct {
	capRem  []float64
	wsum    []float64
	minBand []int64
	stamp   []uint64
	epoch   uint64
	touched []int
	frozen  []bool
	elig    []bool

	// Rounds counts progressive-filling iterations across all Solve
	// calls (each round freezes at least one flow), for diagnostics.
	Rounds uint64
}

// grow sizes the per-link scratch to cover link IDs [0, n).
func (s *refSolver) grow(n int) {
	if len(s.capRem) >= n {
		return
	}
	s.capRem = append(s.capRem, make([]float64, n-len(s.capRem))...)
	s.wsum = append(s.wsum, make([]float64, n-len(s.wsum))...)
	s.minBand = append(s.minBand, make([]int64, n-len(s.minBand))...)
	s.stamp = append(s.stamp, make([]uint64, n-len(s.stamp))...)
}

// touch initializes link l's residual capacity once per solve.
func (s *refSolver) touch(l int, caps []float64) {
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
func (s *refSolver) saturated(l int, caps []float64) bool {
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
func (s *refSolver) Solve(caps []float64, flows []Flow, rates []float64) []float64 {
	n := len(flows)
	if cap(rates) < n {
		rates = make([]float64, n)
	}
	rates = rates[:n]
	s.grow(len(caps))
	s.epoch++
	s.touched = s.touched[:0]
	if cap(s.frozen) < n {
		s.frozen = make([]bool, n)
		s.elig = make([]bool, n)
	}
	s.frozen = s.frozen[:n]
	s.elig = s.elig[:n]

	active := 0
	for i := range flows {
		rates[i] = 0
		fl := &flows[i]
		if len(fl.Links) == 0 {
			s.frozen[i] = true
			continue
		}
		s.frozen[i] = false
		active++
		for _, l := range fl.Links {
			s.touch(l, caps)
		}
		if fl.BandLink >= 0 {
			s.touch(fl.BandLink, caps)
		}
	}

	for active > 0 {
		s.Rounds++
		// Lowest unfrozen band per band link gates eligibility.
		for _, l := range s.touched {
			s.minBand[l] = math.MaxInt64
		}
		for i := range flows {
			if s.frozen[i] {
				continue
			}
			fl := &flows[i]
			if fl.BandLink >= 0 && int64(fl.Band) < s.minBand[fl.BandLink] {
				s.minBand[fl.BandLink] = int64(fl.Band)
			}
		}
		// Weight pressure per link from the eligible set.
		for _, l := range s.touched {
			s.wsum[l] = 0
		}
		for i := range flows {
			fl := &flows[i]
			el := !s.frozen[i] &&
				(fl.BandLink < 0 || int64(fl.Band) == s.minBand[fl.BandLink])
			s.elig[i] = el
			if !el {
				continue
			}
			w := fl.Weight
			if w <= 0 {
				w = 1
			}
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
			for i := range flows {
				if !s.frozen[i] {
					s.frozen[i] = true
					active--
				}
			}
			break
		}
		if ds < 0 {
			ds = 0
		}
		for i := range flows {
			if !s.elig[i] {
				continue
			}
			w := flows[i].Weight
			if w <= 0 {
				w = 1
			}
			rates[i] += w * ds
		}
		for _, l := range s.touched {
			if s.wsum[l] > 0 {
				s.capRem[l] -= s.wsum[l] * ds
			}
		}
		// Freeze the eligible flows that hit a saturated link.
		froze := 0
		for i := range flows {
			if !s.elig[i] {
				continue
			}
			for _, l := range flows[i].Links {
				if s.saturated(l, caps) {
					s.frozen[i] = true
					active--
					froze++
					break
				}
			}
		}
		if froze == 0 {
			// Floating-point slack left the bottleneck marginally above
			// the saturation threshold; freeze its flows directly so
			// every round retires at least one.
			for i := range flows {
				if !s.elig[i] {
					continue
				}
				for _, l := range flows[i].Links {
					if l == bottleneck {
						s.frozen[i] = true
						active--
						froze++
						break
					}
				}
			}
		}
		if froze == 0 {
			for i := range flows {
				if s.elig[i] {
					s.frozen[i] = true
					active--
				}
			}
		}
	}
	return rates
}

// Solve is the convenience entry point for one-shot solves (tests,
// tools); hot paths should hold a refSolver to reuse its scratch.
func refSolve(caps []float64, flows []Flow) []float64 {
	var s refSolver
	return s.Solve(caps, flows, nil)
}

// refFlowState is the engine's record of one active flow.
type refFlowState struct {
	id        FlowID
	seq       uint64 // insertion sequence; orders solver input deterministically
	links     []int
	bandLink  int
	band      int
	weight    float64
	remaining float64 // payload bytes still to serve
	rate      float64 // current allocation, bytes/sec
	tag       any

	// attLinks is links plus bandLink (deduplicated) — every link whose
	// state couples this flow to others. attPos[i] is the flow's index
	// in linkFlows[attLinks[i]], for O(1) detach.
	attLinks []int
	attPos   []int
	inComp   bool // scratch: member of the component being re-solved
}

// refEngine advances fluid flows on a discrete-event kernel. It keeps the
// max-min allocation current across flow arrivals, departures, link
// capacity changes and band changes, accumulates per-link served-byte
// and busy-time counters (the analytic analogue of the chunk fabric's
// port accounting), and schedules exactly one kernel event: the next
// flow completion.
//
// Rate recomputation is scoped and batched so cost tracks the traffic
// footprint, not the cluster size:
//
//   - mutations mark their links dirty and defer the recompute to a
//     same-timestamp kernel event, so a burst of mutations at one
//     instant (a PS broadcasting its model adds one flow per worker —
//     hundreds at 10k-host scale) costs one solve instead of one per
//     mutation. No simulated time passes in between, so no fluid moves
//     at a stale rate;
//   - the recompute re-solves only the connected component of flows
//     reachable from the dirty links through shared links (including
//     strict-priority band links), discovered by BFS over a persistent
//     link->flows index. Flows in unrelated components keep their rates:
//     max-min allocations are independent across link-disjoint sets.
//
// The engine is deterministic: flows advance and complete in insertion
// order, and each component's solver input is sorted by insertion
// sequence, so equal-seed runs produce identical event sequences.
type refEngine struct {
	k      *sim.Kernel
	onDone func(id FlowID, tag any)

	caps   []float64
	served []float64 // cumulative payload bytes through each link
	busy   []float64 // cumulative busy-fraction-seconds per link

	// linkRate[l] is the current aggregate rate on link l; activeLinks
	// lists links that have (or recently had) a positive rate, so
	// advance cost scales with the traffic footprint. Entries whose
	// rate dropped to zero are skipped and compacted away lazily.
	linkRate    []float64
	linkActive  []bool
	activeLinks []int

	// linkFlows[l] holds the active flows attached to link l (path
	// links plus band links); dirtyLinks accumulates the links whose
	// coupled flows need a re-solve.
	linkFlows  [][]*refFlowState
	dirtyMark  []bool
	dirtyLinks []int
	visitMark  []bool // BFS scratch, always false between resolves

	flows   map[FlowID]*refFlowState
	order   []*refFlowState
	free    []*refFlowState // retired flowStates for reuse
	nextSeq uint64
	lastT   float64
	next    sim.Ticket // armed completion event (zero when none)
	nextAt  float64

	// dirty marks the allocation stale; a pooled same-timestamp kernel
	// event (flushFn) performs the deferred recompute. Both callbacks
	// are bound once so posting them never allocates a closure.
	dirty         bool
	flushFn       func()
	completionsFn func()

	solver    refSolver
	sflows    []Flow
	srates    []float64
	compFlows []*refFlowState
	compLinks []int
	queue     []int
	doneBuf   []*refFlowState
	resolves  uint64
}

// newRefEngine creates an engine on the kernel. onDone fires — inside a
// kernel event, in flow insertion order — when a flow's demand reaches
// zero, i.e. when its last byte has cleared the bottleneck.
func newRefEngine(k *sim.Kernel, onDone func(id FlowID, tag any)) *refEngine {
	e := &refEngine{
		k:      k,
		onDone: onDone,
		flows:  make(map[FlowID]*refFlowState),
	}
	e.flushFn = e.flush
	e.completionsFn = e.completions
	return e
}

// AddLink registers a link with the given capacity (payload bytes/sec;
// <= 0 means down) and returns its ID. Links are never removed; an
// unused link costs nothing per solve.
func (e *refEngine) AddLink(capacity float64) int {
	id := len(e.caps)
	e.caps = append(e.caps, capacity)
	e.served = append(e.served, 0)
	e.busy = append(e.busy, 0)
	e.linkRate = append(e.linkRate, 0)
	e.linkActive = append(e.linkActive, false)
	e.linkFlows = append(e.linkFlows, nil)
	e.dirtyMark = append(e.dirtyMark, false)
	e.visitMark = append(e.visitMark, false)
	return id
}

// SetLinkCap changes a link's capacity (faults: detach = 0, degrade =
// scaled) and recomputes the affected flows' rates. A no-op when the
// capacity is unchanged, so redundant fault/reconfig notifications stay
// cheap.
func (e *refEngine) SetLinkCap(l int, capacity float64) {
	if e.caps[l] == capacity {
		return
	}
	e.Sync()
	e.caps[l] = capacity
	e.markLinkDirty(l)
	e.markDirty()
}

// LinkServedBytes returns cumulative payload bytes pushed through link
// l as of the last Sync/mutation.
func (e *refEngine) LinkServedBytes(l int) float64 { return e.served[l] }

// LinkBusySeconds returns the cumulative busy time of link l: the
// integral of min(1, aggregateRate/capacity), matching the chunk
// fabric's per-port busy-time accounting.
func (e *refEngine) LinkBusySeconds(l int) float64 { return e.busy[l] }

// ActiveFlows returns the number of in-flight flows.
func (e *refEngine) ActiveFlows() int { return len(e.order) }

// Sync advances the fluid state (per-flow remaining demand, per-link
// served bytes and busy time) to the kernel clock. Mutations do this
// implicitly; metric readers call it before sampling counters.
func (e *refEngine) Sync() { e.advance(e.k.Now()) }

func (e *refEngine) advance(now float64) {
	dt := now - e.lastT
	if dt <= 0 {
		return
	}
	e.lastT = now
	for _, fs := range e.order {
		if fs.rate > 0 {
			fs.remaining -= fs.rate * dt
			if fs.remaining < 0 {
				fs.remaining = 0
			}
		}
	}
	idle := 0
	for _, l := range e.activeLinks {
		r := e.linkRate[l]
		if r <= 0 {
			idle++
			continue
		}
		e.served[l] += r * dt
		if c := e.caps[l]; c > 0 {
			u := r / c
			if u > 1 {
				u = 1
			}
			e.busy[l] += u * dt
		}
	}
	// Compact out links whose traffic has drained so the scan stays
	// proportional to current activity.
	if idle > 64 && 2*idle > len(e.activeLinks) {
		kept := e.activeLinks[:0]
		for _, l := range e.activeLinks {
			if e.linkRate[l] > 0 {
				kept = append(kept, l)
			} else {
				e.linkActive[l] = false
			}
		}
		e.activeLinks = kept
	}
}

// attach indexes the flow under every link that couples it to others.
func (e *refEngine) attach(fs *refFlowState) {
	add := func(l int) {
		for _, a := range fs.attLinks {
			if a == l {
				return
			}
		}
		fs.attLinks = append(fs.attLinks, l)
		fs.attPos = append(fs.attPos, len(e.linkFlows[l]))
		e.linkFlows[l] = append(e.linkFlows[l], fs)
	}
	for _, l := range fs.links {
		add(l)
	}
	if fs.bandLink >= 0 {
		add(fs.bandLink)
	}
}

// detach removes the flow from the link index (swap-remove, fixing the
// moved flow's back-pointer).
func (e *refEngine) detach(fs *refFlowState) {
	for i, l := range fs.attLinks {
		p := fs.attPos[i]
		lf := e.linkFlows[l]
		last := len(lf) - 1
		moved := lf[last]
		lf[p] = moved
		lf[last] = nil
		e.linkFlows[l] = lf[:last]
		if moved != fs {
			for j, ml := range moved.attLinks {
				if ml == l {
					moved.attPos[j] = p
					break
				}
			}
		}
	}
	fs.attLinks = fs.attLinks[:0]
	fs.attPos = fs.attPos[:0]
}

// markLinkDirty queues link l for the next component re-solve.
func (e *refEngine) markLinkDirty(l int) {
	if !e.dirtyMark[l] {
		e.dirtyMark[l] = true
		e.dirtyLinks = append(e.dirtyLinks, l)
	}
}

// markFlowDirty queues every link the flow is attached to.
func (e *refEngine) markFlowDirty(fs *refFlowState) {
	for _, l := range fs.attLinks {
		e.markLinkDirty(l)
	}
}

// AddFlow starts a flow of the given demand (payload bytes) across the
// listed links. bandLink/band place it in the strict-priority order at
// its source egress (bandLink < 0 disables gating); weight scales its
// fair share. tag is returned to onDone untouched. links is copied, so
// callers may reuse the slice.
func (e *refEngine) AddFlow(id FlowID, links []int, bandLink, band int, weight, bytes float64, tag any) {
	if bytes <= 0 {
		panic(fmt.Sprintf("flownet: flow %d demand %g must be positive", id, bytes))
	}
	if len(links) == 0 {
		panic(fmt.Sprintf("flownet: flow %d needs at least one link", id))
	}
	if _, ok := e.flows[id]; ok {
		panic(fmt.Sprintf("flownet: flow %d already active", id))
	}
	e.Sync()
	var fs *refFlowState
	if n := len(e.free); n > 0 {
		fs = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		fs = &refFlowState{}
	}
	fs.id = id
	fs.seq = e.nextSeq
	fs.links = append(fs.links[:0], links...)
	fs.bandLink = bandLink
	fs.band = band
	fs.weight = weight
	fs.remaining = bytes
	fs.rate = 0
	fs.tag = tag
	e.nextSeq++
	e.flows[id] = fs
	e.order = append(e.order, fs)
	e.attach(fs)
	e.markFlowDirty(fs)
	e.markDirty()
}

// release returns a detached, unlinked refFlowState to the free list.
func (e *refEngine) release(fs *refFlowState) {
	fs.tag = nil
	e.free = append(e.free, fs)
}

// UpdateFlow reroutes/rebands an active flow in place (tc reconfigured
// the source host), preserving its remaining demand and its position in
// the deterministic completion order. Returns false for unknown IDs.
// A no-op resolve is skipped when nothing changed. links is copied, so
// callers may reuse the slice.
func (e *refEngine) UpdateFlow(id FlowID, links []int, bandLink, band int, weight float64) bool {
	fs, ok := e.flows[id]
	if !ok {
		return false
	}
	if fs.bandLink == bandLink && fs.band == band && fs.weight == weight && refIntsEqual(fs.links, links) {
		return true
	}
	if len(links) == 0 {
		panic(fmt.Sprintf("flownet: flow %d needs at least one link", id))
	}
	e.Sync()
	e.markFlowDirty(fs) // old coupling
	e.detach(fs)
	fs.links = append(fs.links[:0], links...)
	fs.bandLink = bandLink
	fs.band = band
	fs.weight = weight
	e.attach(fs)
	e.markFlowDirty(fs) // new coupling
	e.markDirty()
	return true
}

// RemoveFlow cancels an active flow without completing it (no onDone).
// Returns false for unknown IDs.
func (e *refEngine) RemoveFlow(id FlowID) bool {
	fs, ok := e.flows[id]
	if !ok {
		return false
	}
	e.Sync()
	e.markFlowDirty(fs)
	e.detach(fs)
	delete(e.flows, id)
	for i, o := range e.order {
		if o == fs {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	e.release(fs)
	e.markDirty()
	return true
}

// Remaining returns a flow's outstanding demand in bytes.
func (e *refEngine) Remaining(id FlowID) (float64, bool) {
	fs, ok := e.flows[id]
	if !ok {
		return 0, false
	}
	return fs.remaining, true
}

// Rate returns a flow's current allocation in bytes/sec.
func (e *refEngine) Rate(id FlowID) (float64, bool) {
	fs, ok := e.flows[id]
	if !ok {
		return 0, false
	}
	e.ensureResolved()
	return fs.rate, true
}

// markDirty defers the allocation recompute to a same-timestamp kernel
// event (or to the first rate read, whichever comes first). The flush
// runs before the kernel advances past the current instant, so stale
// rates are never integrated over a nonzero interval. The event is
// pooled (Post, no handle): if a rate read resolves eagerly first, the
// flush fires as a cheap no-op.
func (e *refEngine) markDirty() {
	if e.dirty {
		return
	}
	e.dirty = true
	e.k.Post(e.k.Now(), e.flushFn)
}

func (e *refEngine) flush() {
	if e.dirty {
		e.resolve()
	}
}

// ensureResolved recomputes eagerly when a caller needs current rates
// while a deferred flush is pending (e.g. Rate between two mutations at
// the same instant).
func (e *refEngine) ensureResolved() {
	if e.dirty {
		e.resolve()
	}
}

// resolve recomputes the allocation for every flow coupled to a dirty
// link and rearms the next completion event. Callers must have advanced
// the fluid state to now first.
//
// The affected set is the BFS closure of the dirty links over the
// link->flows index: a flow joins when any of its links (path or band)
// is reached, and contributes all its links in turn. Flows outside the
// closure share no constraint with any mutated flow or link, so their
// max-min rates are unchanged by construction.
func (e *refEngine) resolve() {
	e.dirty = false
	e.resolves++

	e.queue = e.queue[:0]
	e.compFlows = e.compFlows[:0]
	e.compLinks = e.compLinks[:0]
	for _, l := range e.dirtyLinks {
		e.dirtyMark[l] = false
		if !e.visitMark[l] {
			e.visitMark[l] = true
			e.queue = append(e.queue, l)
		}
	}
	e.dirtyLinks = e.dirtyLinks[:0]
	for i := 0; i < len(e.queue); i++ {
		l := e.queue[i]
		e.compLinks = append(e.compLinks, l)
		for _, fs := range e.linkFlows[l] {
			if fs.inComp {
				continue
			}
			fs.inComp = true
			e.compFlows = append(e.compFlows, fs)
			for _, al := range fs.attLinks {
				if !e.visitMark[al] {
					e.visitMark[al] = true
					e.queue = append(e.queue, al)
				}
			}
		}
	}
	for _, l := range e.queue {
		e.visitMark[l] = false
	}

	if len(e.compFlows) > 0 {
		// refSolver input in insertion order: the allocation itself is
		// order-independent, but fixing the order pins the floating-point
		// evaluation so results do not depend on adjacency internals.
		// Insertion sort: BFS discovers flows roughly in insertion order
		// (link lists append in arrival order), so this is near-linear,
		// and unlike sort.Slice it does not allocate.
		cf := e.compFlows
		for i := 1; i < len(cf); i++ {
			fs := cf[i]
			j := i - 1
			for j >= 0 && cf[j].seq > fs.seq {
				cf[j+1] = cf[j]
				j--
			}
			cf[j+1] = fs
		}
		e.sflows = e.sflows[:0]
		for _, fs := range e.compFlows {
			e.sflows = append(e.sflows, Flow{
				Links: fs.links, Weight: fs.weight, Band: fs.band, BandLink: fs.bandLink,
			})
		}
		e.srates = e.solver.Solve(e.caps, e.sflows, e.srates[:0])
		for i, fs := range e.compFlows {
			fs.rate = e.srates[i]
			fs.inComp = false
		}
	}
	// Refresh the component's link aggregates; untouched links keep
	// their rates (their flows were not in the component).
	for _, l := range e.compLinks {
		e.linkRate[l] = 0
	}
	for _, fs := range e.compFlows {
		if fs.rate <= 0 {
			continue
		}
		for _, l := range fs.links {
			e.linkRate[l] += fs.rate
		}
	}
	for _, l := range e.compLinks {
		if e.linkRate[l] > 0 && !e.linkActive[l] {
			e.linkActive[l] = true
			e.activeLinks = append(e.activeLinks, l)
		}
	}
	e.schedule()
}

// schedule (re)arms the single completion event at the earliest
// projected flow finish. Kept in place when the target time is
// unchanged, sparing the event heap a cancel+push per resolve. The
// event is a ticketed pooled event (see sim.PostTicket), so the heavy
// re-arm traffic of a busy fabric recycles one struct instead of
// allocating per resolve.
func (e *refEngine) schedule() {
	t := math.MaxFloat64
	for _, fs := range e.order {
		if fs.rate <= 0 {
			continue
		}
		if at := e.lastT + fs.remaining/fs.rate; at < t {
			t = at
		}
	}
	if t == math.MaxFloat64 {
		e.k.CancelTicket(e.next)
		e.next = sim.Ticket{}
		return
	}
	if now := e.k.Now(); t < now {
		t = now
	}
	if e.next.Active() && t == e.nextAt {
		return
	}
	e.k.CancelTicket(e.next)
	e.next = e.k.PostTicket(t, e.completionsFn)
	e.nextAt = t
}

// completions retires every flow whose demand has drained, recomputes
// the affected allocations once, then fires the completion callbacks in
// insertion order. Callbacks may start new flows (synchronous training
// reacts to transfer completion by sending the next update); the engine
// state is consistent before the first callback runs.
func (e *refEngine) completions() {
	e.next = sim.Ticket{}
	e.advance(e.k.Now())
	done := e.doneBuf[:0]
	kept := e.order[:0]
	for _, fs := range e.order {
		if fs.remaining <= completionEps {
			done = append(done, fs)
			delete(e.flows, fs.id)
			e.markFlowDirty(fs)
			e.detach(fs)
		} else {
			kept = append(kept, fs)
		}
	}
	for i := len(kept); i < len(e.order); i++ {
		e.order[i] = nil
	}
	e.order = kept
	e.doneBuf = done[:0]
	e.resolve()
	for _, fs := range done {
		e.onDone(fs.id, fs.tag)
	}
	for _, fs := range done {
		e.release(fs)
	}
}

func refIntsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
