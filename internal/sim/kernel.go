// Package sim provides a deterministic discrete-event simulation kernel:
// a simulated clock, a cancellable event queue, and seeded random number
// streams. The queue is a binary heap plus a few FIFO lanes that hold
// PostArgAfter events of one constant delay each (the chunk fabric's
// service and propagation delays), which arrive already sorted and so
// skip the heap; events fire in (time, seq) order either way. All
// simulations in this repository are single-threaded per run and
// therefore fully reproducible given a seed; parallelism is applied
// across independent runs by higher layers (see internal/sweep's Engine).
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Forever is a sentinel meaning "never" for schedule horizons.
const Forever Time = math.MaxFloat64

// Event is a scheduled callback. Events fire in (time, seq) order:
// earlier time first, then insertion order.
type Event struct {
	at Time
	fn func()
	// fnA/arg is the allocation-free alternative to closing over a single
	// pointer: PostArg events carry the argument in the event struct, so
	// hot paths that would otherwise build a one-word closure per event
	// (chunk service completion, flow injection) allocate nothing.
	fnA      func(any)
	arg      any
	seq      uint64
	queued   bool // in the heap; lane events have no handle to ask
	canceled bool
	// pooled marks events scheduled through Post*: no handle was ever
	// handed out, so the kernel may recycle the struct after it fires or
	// is discarded. Handle-returning Schedule* events are never pooled —
	// callers may hold (and Cancel) their pointer long after the event
	// fired, and reuse would alias a live event.
	pooled bool
}

// At returns the time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e.canceled }

// Pending reports whether the event is still queued and not canceled.
func (e *Event) Pending() bool { return !e.canceled && e.queued }

// before is the queue ordering: (at, seq) ascending.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel is the discrete-event engine. The zero value is not usable; use
// NewKernel. Kernels are single-threaded: one goroutine owns a kernel and
// everything scheduled on it for the whole run.
type Kernel struct {
	now   Time
	queue eventHeap
	// lanes hold PostArgAfter events off the heap; see laneFor.
	lanes [numLanes]lane
	// laned counts the events in all lanes.
	laned  int
	seq    uint64
	nFired uint64
	// free recycles pooled (handle-less) events; see Post.
	free []*Event
	// allocs counts Event structs allocated (not served from the pool).
	allocs uint64
	// Hard safety cap on events fired in one Run; prevents runaway
	// simulations from spinning forever. Zero means no cap.
	MaxEvents uint64
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events fired so far.
func (k *Kernel) Fired() uint64 { return k.nFired }

// EventAllocs returns how many Event structs were heap-allocated, i.e.
// not served from the pooled free list. With Post-heavy workloads this
// stays far below Fired(); benchmarks report allocs/event from it.
func (k *Kernel) EventAllocs() uint64 { return k.allocs }

// Pending returns the number of events queued (including canceled events
// not yet discarded).
func (k *Kernel) Pending() int { return len(k.queue) + k.laned }

// Schedule queues fn to run at absolute time at.
// Scheduling in the past panics: it always indicates a model bug.
func (k *Kernel) Schedule(at Time, fn func()) *Event {
	return k.newEvent(at, fn, false)
}

// ScheduleAfter queues fn to run delay seconds from now.
func (k *Kernel) ScheduleAfter(delay Time, fn func()) *Event {
	return k.newEvent(k.now+delay, fn, false)
}

// Post queues fn at absolute time at without returning a cancellation
// handle. Handle-less events are recycled through an internal pool, so
// hot paths that schedule once per chunk (service completion, wire
// propagation, delivery) run allocation-free. Use Schedule when the
// caller needs to Cancel or inspect the event later.
func (k *Kernel) Post(at Time, fn func()) {
	k.newEvent(at, fn, true)
}

// PostAfter queues fn to run delay seconds from now, without a handle.
func (k *Kernel) PostAfter(delay Time, fn func()) {
	k.newEvent(k.now+delay, fn, true)
}

// PostArg queues fn(arg) at absolute time at, without a handle. The
// argument rides in the pooled event struct, so callers that would
// otherwise close over one pointer per event (the per-chunk hot paths)
// schedule with zero allocations by reusing a long-lived fn.
func (k *Kernel) PostArg(at Time, fn func(any), arg any) {
	k.queue.push(k.argEvent(at, fn, arg))
}

// PostArgAfter queues fn(arg) delay seconds from now, without a handle.
// The event goes to the lane bound to delay when there is one, since the
// hot per-chunk paths post with a handful of constant delays.
func (k *Kernel) PostArgAfter(delay Time, fn func(any), arg any) {
	e := k.argEvent(k.now+delay, fn, arg)
	if l := k.laneFor(delay); l != nil {
		l.push(e)
		k.laned++
		return
	}
	k.queue.push(e)
}

func (k *Kernel) argEvent(at Time, fn func(any), arg any) *Event {
	if fn == nil {
		panic("sim: schedule nil func")
	}
	e := k.takeEvent(at, true)
	e.fnA = fn
	e.arg = arg
	return e
}

func (k *Kernel) newEvent(at Time, fn func(), pooled bool) *Event {
	if fn == nil {
		panic("sim: schedule nil func")
	}
	e := k.takeEvent(at, pooled)
	e.fn = fn
	k.queue.push(e)
	return e
}

// takeEvent stamps a fresh or recycled event for time at with the next
// seq; the caller sets its callback and queues it.
func (k *Kernel) takeEvent(at Time, pooled bool) *Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %.9f before now %.9f", at, k.now))
	}
	k.seq++
	var e *Event
	if n := len(k.free); pooled && n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &Event{}
		k.allocs++
	}
	e.at = at
	e.seq = k.seq
	e.canceled = false
	e.pooled = pooled
	return e
}

// recycle returns a pooled event to the free list once no reference to
// it can remain (it fired, or it was canceled and discarded). Non-pooled
// events are left to the garbage collector: their handle may outlive the
// event arbitrarily.
func (k *Kernel) recycle(e *Event) {
	if !e.pooled {
		return
	}
	e.fn = nil
	e.fnA = nil
	e.arg = nil
	// Invalidate outstanding Tickets: seq 0 is never issued, so stale
	// tickets stop matching the moment the struct returns to the pool.
	e.seq = 0
	k.free = append(k.free, e)
}

// Cancel marks the event canceled; it will be discarded when it reaches
// the head of the queue. Cancelling nil or an already-fired event is a
// no-op, so callers may cancel unconditionally.
func (k *Kernel) Cancel(e *Event) {
	if e == nil {
		return
	}
	e.canceled = true
}

// A Ticket names one incarnation of a pooled event for best-effort
// cancellation. Pooled event structs are recycled the moment they fire,
// so a bare *Event pointer would be unsafe to hold: cancelling it later
// could cancel whatever unrelated event reused the struct. The ticket
// pairs the pointer with the event's unique sequence stamp; once the
// struct is reused the stamps disagree and the ticket degrades to a
// no-op. The zero Ticket is valid and cancels nothing.
type Ticket struct {
	ev  *Event
	seq uint64
}

// Active reports whether the ticket still names a live (queued,
// uncancelled) incarnation of its event.
func (t Ticket) Active() bool {
	return t.ev != nil && t.ev.seq == t.seq && !t.ev.canceled
}

// PostTicket queues fn at absolute time at as a pooled event — the
// allocation-free path of Post — and returns a Ticket for it. Use this
// over Schedule when a hot path needs to re-arm a single logical timer:
// the event struct recycles through the pool, and the stale ticket left
// behind after it fires is harmless.
func (k *Kernel) PostTicket(at Time, fn func()) Ticket {
	e := k.newEvent(at, fn, true)
	return Ticket{ev: e, seq: e.seq}
}

// CancelTicket cancels the ticketed event if that incarnation is still
// queued; stale tickets (the event fired, and its struct may since have
// been reused) and the zero Ticket are no-ops.
func (k *Kernel) CancelTicket(t Ticket) {
	if t.ev != nil && t.ev.seq == t.seq {
		t.ev.canceled = true
	}
}

// peek returns the earliest live event by (at, seq) and where it waits:
// lane index src, or -1 for the heap. It discards canceled events it
// finds on the way; e is nil when nothing is queued. Each lane is
// sorted, so its first event is its minimum.
func (k *Kernel) peek() (e *Event, src int) {
	for {
		e, src = nil, -1
		if len(k.queue) > 0 {
			e = k.queue[0]
		}
		if k.laned > 0 {
			for i := range k.lanes {
				l := &k.lanes[i]
				if l.n == 0 {
					continue
				}
				if h := l.buf[l.first]; e == nil || h.before(e) {
					e, src = h, i
				}
			}
		}
		if e == nil || !e.canceled {
			return e, src
		}
		k.recycle(k.popHead(src))
	}
}

// popHead removes and returns the event peek reported at src.
func (k *Kernel) popHead(src int) *Event {
	if src < 0 {
		return k.queue.pop()
	}
	k.laned--
	return k.lanes[src].pop()
}

// Step fires the next pending event. It returns false when the queue is
// empty (after discarding canceled events).
func (k *Kernel) Step() bool {
	e, src := k.peek()
	if e == nil {
		return false
	}
	k.popHead(src)
	if e.at < k.now {
		panic("sim: event queue time went backwards")
	}
	k.now = e.at
	k.nFired++
	k.fire(e)
	return true
}

// fire recycles e and runs its callback. Recycling comes first: the
// callback may schedule new events, which can then reuse this struct —
// safe, as no handle exists.
func (k *Kernel) fire(e *Event) {
	fn, fnA, arg := e.fn, e.fnA, e.arg
	k.recycle(e)
	if fnA != nil {
		fnA(arg)
	} else {
		fn()
	}
}

// Run fires events until the queue drains or until stop returns true
// (checked before each event, with the clock already advanced to that
// event's time). It returns the number of events fired. An event that
// stop holds back stays queued, so a later Run resumes in the same
// order; the firing order is the one-Step-at-a-time loop's.
func (k *Kernel) Run(stop func() bool) uint64 {
	start := k.nFired
	for {
		e, src := k.peek()
		if e == nil {
			return k.nFired - start
		}
		if e.at < k.now {
			panic("sim: event queue time went backwards")
		}
		k.now = e.at
		if stop != nil && stop() {
			return k.nFired - start
		}
		if k.MaxEvents > 0 && k.nFired-start >= k.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d (runaway simulation?)", k.MaxEvents))
		}
		k.popHead(src)
		k.nFired++
		k.fire(e)
	}
}

// NextAt returns the timestamp of the earliest pending event, discarding
// canceled events it finds on the way. ok is false when the queue is
// empty.
func (k *Kernel) NextAt() (at Time, ok bool) {
	if e, _ := k.peek(); e != nil {
		return e.at, true
	}
	return 0, false
}

// RunUntil fires events with timestamps <= deadline, leaving later events
// queued and advancing the clock to deadline if it passed it.
func (k *Kernel) RunUntil(deadline Time) {
	for {
		if e, _ := k.peek(); e == nil || e.at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// numLanes is how many delays can hold a lane at once. The chunk fabric
// posts with three: full-chunk service, last-chunk service and
// propagation.
const numLanes = 4

// laneFor returns the lane for events posted delay seconds from now: the
// one already bound to delay, else an empty lane, which it binds to
// delay. It returns nil when every lane holds another delay; the event
// then goes to the heap. A lane stays sorted by (at, seq) without any
// compares: its events are stamped now+delay with one delay, now never
// decreases and float addition is monotone, and seq only grows.
func (k *Kernel) laneFor(delay Time) *lane {
	var free *lane
	for i := range k.lanes {
		l := &k.lanes[i]
		if l.n == 0 {
			if free == nil {
				free = l
			}
		} else if l.delay == delay {
			return l
		}
	}
	if free != nil {
		free.delay = delay
	}
	return free
}

// lane is a FIFO ring of events posted with one delay.
type lane struct {
	delay Time
	buf   []*Event // ring; len is zero or a power of two
	first int      // index of the head event in buf
	n     int      // events queued
}

func (l *lane) push(e *Event) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.first+l.n)&(len(l.buf)-1)] = e
	l.n++
}

func (l *lane) pop() *Event {
	e := l.buf[l.first]
	l.buf[l.first] = nil
	l.first = (l.first + 1) & (len(l.buf) - 1)
	l.n--
	return e
}

// grow doubles the ring, unrolling it so the head lands at index 0.
func (l *lane) grow() {
	buf := make([]*Event, max(16, 2*len(l.buf)))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.first+i)&(len(l.buf)-1)]
	}
	l.buf, l.first = buf, 0
}

// eventHeap is a min-heap on (at, seq) holding every event not in a
// lane. The heap is hand-rolled rather than built on container/heap:
// sift operations on the concrete type inline and skip the interface
// dispatch that container/heap pays on every comparison. Events are
// never removed from the middle (cancellation is lazy), so the heap
// keeps no per-event index.
type eventHeap []*Event

func (h *eventHeap) push(e *Event) {
	e.queued = true
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() *Event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n > 1 {
		h.down(0)
	}
	top.queued = false
	return top
}

func (h *eventHeap) down(i int) {
	q := *h
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && q[r].before(q[l]) {
			small = r
		}
		if !q[small].before(q[i]) {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
}
