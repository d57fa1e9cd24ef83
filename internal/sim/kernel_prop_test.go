package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestKernelFiringOrderProperty drives the kernel with random
// schedule/post/cancel/reschedule sequences and checks the ordering
// contract against a model: events fire in nondecreasing time, ties
// break by insertion seq, canceled events never fire, and
// nothing is lost or duplicated. Runs under -race in CI (make race).
func TestKernelFiringOrderProperty(t *testing.T) {
	type expect struct {
		at  float64
		seq int // model-side insertion counter
		// schedAfter is how many events had fired when this one was
		// scheduled: tie-break ordering is only a contract between
		// events pending in the queue together.
		schedAfter int
	}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		k := NewKernel()

		var fired []expect
		live := map[int]*Event{} // model seq -> cancellable handle
		model := map[int]expect{}
		mustNotFire := map[int]bool{} // canceled while still pending
		nextSeq := 0

		cancelOne := func() {
			for seq, h := range live {
				if h.Pending() {
					mustNotFire[seq] = true
				}
				k.Cancel(h)
				delete(model, seq)
				delete(live, seq)
				return
			}
		}

		schedule := func(at float64, pooled bool) {
			seq := nextSeq
			nextSeq++
			e := expect{at: at, seq: seq, schedAfter: len(fired)}
			model[seq] = e
			fn := func() { fired = append(fired, e) }
			if pooled {
				if rng.Intn(2) == 0 {
					k.Post(at, fn)
				} else {
					k.PostAfter(at-k.Now(), fn)
				}
				return
			}
			var h *Event
			if rng.Intn(2) == 0 {
				h = k.Schedule(at, fn)
			} else {
				h = k.ScheduleAfter(at-k.Now(), fn)
			}
			live[seq] = h
		}

		ops := 300 + rng.Intn(300)
		for op := 0; op < ops; op++ {
			switch r := rng.Float64(); {
			case r < 0.45: // schedule at a random future (or present) time
				at := k.Now() + float64(rng.Intn(20))*0.5
				schedule(at, rng.Intn(2) == 0)
			case r < 0.6: // cancel a random live handle
				cancelOne()
			case r < 0.7: // reschedule: cancel + schedule a replacement
				cancelOne()
				schedule(k.Now()+float64(rng.Intn(10)), false)
			default: // fire a few events
				for i := 0; i < 1+rng.Intn(4); i++ {
					if !k.Step() {
						break
					}
				}
			}
		}
		for k.Step() {
		}

		// Every surviving model event fired exactly once; an event
		// canceled while pending never fired; nothing fired twice. (An
		// already-fired event may be "canceled" afterwards — the
		// documented no-op — which removes it from the model but must
		// not un-fire it, hence the three separate checks.)
		seen := map[int]int{}
		for _, f := range fired {
			seen[f.seq]++
		}
		for seq := range model {
			if seen[seq] != 1 {
				t.Fatalf("trial %d: event seq %d fired %d times, want 1", trial, seq, seen[seq])
			}
		}
		for seq := range mustNotFire {
			if seen[seq] != 0 {
				t.Fatalf("trial %d: canceled event seq %d fired", trial, seq)
			}
		}
		for seq, n := range seen {
			if n > 1 {
				t.Fatalf("trial %d: event seq %d fired %d times", trial, seq, n)
			}
		}

		// Firing order: nondecreasing time always; among events that
		// were pending together (b scheduled before a fired), same-time
		// ties ordered by insertion seq.
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at {
				t.Fatalf("trial %d: time went backwards: %v after %v", trial, b, a)
			}
			if b.at == a.at && b.schedAfter < i {
				if b.seq < a.seq {
					t.Fatalf("trial %d: tie-break violated: %v fired after %v", trial, b, a)
				}
			}
		}
	}
}

// TestKernelPoolReuseKeepsOrdering stresses the pooled Post path mixed
// with cancels so recycled Event structs are continually reused, and
// asserts the (time, seq) order is unaffected by reuse.
func TestKernelPoolReuseKeepsOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := NewKernel()
	var fired []float64
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			at := k.Now() + rng.Float64()*3
			k.Post(at, func() { fired = append(fired, k.Now()) })
		}
		if rng.Intn(3) == 0 {
			h := k.ScheduleAfter(rng.Float64(), func() { fired = append(fired, k.Now()) })
			if rng.Intn(2) == 0 {
				k.Cancel(h)
			}
		}
		for i := 0; i < rng.Intn(6); i++ {
			if !k.Step() {
				break
			}
		}
	}
	for k.Step() {
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fire times went backwards: %g after %g", fired[i], fired[i-1])
		}
	}
	if k.EventAllocs() == 0 {
		t.Fatal("expected some heap-allocated events")
	}
	if k.EventAllocs() >= k.Fired() {
		t.Fatalf("pool never reused: %d allocs for %d fired", k.EventAllocs(), k.Fired())
	}
}

// orderHarness drives a Kernel with a random op sequence and keeps the
// reference model: every event's time and cancellation, with ids issued
// in the same order as the kernel's seq. Because a new event never fires
// before anything already fired, the whole firing sequence must equal
// the fired-or-live events sorted by (at, id).
type orderHarness struct {
	t       testing.TB
	k       *Kernel
	draw    func(n int) int // a choice in [0, n)
	delays  []Time          // PostArgAfter delays; repeats share a lane
	evs     []modelEvent    // by id
	fired   []int
	handles []handle
	tickets []ticket
	// laned and heaped count PostArgAfter events that went to a lane or
	// fell back to the heap.
	laned, heaped int
}

type modelEvent struct {
	at              Time
	fired, canceled bool
}

// handle and ticket name cancellable events by model id.
type handle struct {
	id int
	ev *Event
}

type ticket struct {
	id int
	t  Ticket
}

func newOrderHarness(t testing.TB, draw func(n int) int) *orderHarness {
	// Three repeated delays, one not exactly representable, plus more
	// distinct ones than there are lanes so posts also fall back to the
	// heap. Multiples of 0.25 tie with each other and with Post times.
	delays := []Time{0.5, 0.25, 262.144e-6, 0.5, 0.25, 262.144e-6}
	for i := 1; i <= numLanes+2; i++ {
		delays = append(delays, 0.75*Time(i))
	}
	return &orderHarness{t: t, k: NewKernel(), draw: draw, delays: delays}
}

func (h *orderHarness) add(at Time) int {
	h.evs = append(h.evs, modelEvent{at: at})
	return len(h.evs) - 1
}

func (h *orderHarness) record(id int) {
	ev := &h.evs[id]
	if ev.fired || ev.canceled {
		h.t.Fatalf("event %d fired twice or after cancel (%+v)", id, *ev)
	}
	if h.k.Now() != ev.at {
		h.t.Fatalf("event %d fired at %v, scheduled for %v", id, h.k.Now(), ev.at)
	}
	ev.fired = true
	h.fired = append(h.fired, id)
}

// onArg is the PostArgAfter callback. Some events chain a successor, as
// chunk service does, or a same-time Post that lands mid-batch.
func (h *orderHarness) onArg(a any) {
	id := a.(int)
	h.record(id)
	if id%3 == 0 {
		h.postArgAfter(h.delays[id%len(h.delays)])
	}
	if id%7 == 0 {
		h.post(h.k.Now())
	}
}

func (h *orderHarness) postArgAfter(d Time) {
	id := h.add(h.k.Now() + d)
	before := h.k.laned
	h.k.PostArgAfter(d, h.onArg, id)
	if h.k.laned > before {
		h.laned++
	} else {
		h.heaped++
	}
}

func (h *orderHarness) post(at Time) {
	id := h.add(at)
	h.k.Post(at, func() { h.record(id) })
}

func (h *orderHarness) future() Time {
	return h.k.Now() + 0.25*Time(h.draw(12))
}

// op applies one random operation.
func (h *orderHarness) op() {
	k := h.k
	switch h.draw(10) {
	case 0, 1, 2:
		h.postArgAfter(h.delays[h.draw(len(h.delays))])
	case 3:
		h.post(h.future())
	case 4:
		id := h.add(h.future())
		h.handles = append(h.handles, handle{id, k.Schedule(h.evs[id].at, func() { h.record(id) })})
	case 5:
		id := h.add(h.future())
		h.tickets = append(h.tickets, ticket{id, k.PostTicket(h.evs[id].at, func() { h.record(id) })})
	case 6:
		if n := len(h.handles); n > 0 {
			hd := h.handles[h.draw(n)]
			h.cancel(hd.id)
			k.Cancel(hd.ev)
		}
	case 7:
		if n := len(h.tickets); n > 0 {
			tk := h.tickets[h.draw(n)]
			h.cancel(tk.id)
			k.CancelTicket(tk.t)
		}
	case 8:
		for n := 1 + h.draw(4); n > 0 && k.Step(); n-- {
		}
	default:
		// Run with a stop that trips after a few events, usually in the
		// middle of a same-time batch; later ops resume the run.
		left := 1 + h.draw(6)
		k.Run(func() bool { left--; return left < 0 })
	}
	h.checkPending()
}

func (h *orderHarness) cancel(id int) {
	if ev := &h.evs[id]; !ev.fired {
		ev.canceled = true
	}
}

// checkPending compares the queue's counts with the model. Pending()
// also counts canceled events not yet discarded, so the live count
// bounds it from below and live plus canceled from above.
func (h *orderHarness) checkPending() {
	live, canceled := 0, 0
	for _, ev := range h.evs {
		switch {
		case ev.canceled:
			canceled++
		case !ev.fired:
			live++
		}
	}
	if p := h.k.Pending(); p < live || p > live+canceled {
		h.t.Fatalf("Pending() = %d, want %d live events (+ up to %d canceled)", p, live, canceled)
	}
	for _, hd := range h.handles {
		ev := h.evs[hd.id]
		if want := !ev.fired && !ev.canceled; hd.ev.Pending() != want {
			h.t.Fatalf("event %d: Pending() = %v, want %v", hd.id, !want, want)
		}
	}
	for _, tk := range h.tickets {
		ev := h.evs[tk.id]
		if want := !ev.fired && !ev.canceled; tk.t.Active() != want {
			h.t.Fatalf("ticket %d: Active() = %v, want %v", tk.id, !want, want)
		}
	}
}

// finish drains the kernel and checks the firing order against the
// reference sort.
func (h *orderHarness) finish() {
	h.k.Run(nil)
	if h.k.Pending() != 0 {
		h.t.Fatalf("Pending() = %d after drain", h.k.Pending())
	}
	var want []int
	for id, ev := range h.evs {
		if !ev.canceled {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return h.evs[want[a]].at < h.evs[want[b]].at })
	if len(h.fired) != len(want) || uint64(len(h.fired)) != h.k.Fired() {
		h.t.Fatalf("fired %d events (kernel counts %d), want %d", len(h.fired), h.k.Fired(), len(want))
	}
	for i := range want {
		if h.fired[i] != want[i] {
			h.t.Fatalf("firing order diverges at %d: got event %d, want %d", i, h.fired[i], want[i])
		}
	}
}

// TestKernelLaneOrderProperty runs seeded random mixes of lane and heap
// traffic, cancellation and interrupted Runs, and checks the firing
// order against a reference sort by (at, seq).
func TestKernelLaneOrderProperty(t *testing.T) {
	var laned, heaped int
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		h := newOrderHarness(t, rng.Intn)
		for op := 0; op < 400; op++ {
			h.op()
		}
		h.finish()
		laned += h.laned
		heaped += h.heaped
	}
	if laned == 0 || heaped == 0 {
		t.Fatalf("PostArgAfter events: %d laned, %d on the heap; want both", laned, heaped)
	}
}

// FuzzKernelOrder decodes the input into an op sequence (one byte per
// choice, zero once exhausted) and checks it against the same reference
// model as TestKernelLaneOrderProperty. The seed corpus is under
// testdata/fuzz/FuzzKernelOrder.
func FuzzKernelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		pos := 0
		draw := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1]) % n
		}
		h := newOrderHarness(t, draw)
		for pos < len(data) {
			h.op()
		}
		h.finish()
	})
}
