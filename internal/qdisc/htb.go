package qdisc

import (
	"cmp"
	"fmt"
	"slices"
)

// HTB is a two-level hierarchical token bucket: a root class bounded by
// the link ceil, and leaf classes each with a guaranteed rate, a ceil, a
// borrowing priority and a DRR quantum. This mirrors how the paper
// deploys TensorLights: `tc qdisc add ... root htb` plus one leaf class
// per priority band, where each leaf has a tiny guaranteed rate and full
// ceil so that the borrowing priority realizes strict prioritization
// while remaining work-conserving.
//
// Semantics follow htb's documented behaviour:
//
//   - a leaf whose own token bucket is non-negative is "green" and may
//     send at its guaranteed rate regardless of priority;
//   - otherwise, if its ceil bucket and the root bucket are non-negative
//     it is "yellow" and may borrow, with lower Prio values offered the
//     excess bandwidth first;
//   - equal-priority leaves share via deficit round robin weighted by
//     Quantum.
//
// The data path (Enqueue, Dequeue, ReadyAt, Len, BacklogBytes) does not
// allocate: classes are kept in one slice sorted by (Prio, ID) that only
// AddClass, ChangeClass and DeleteClass rebuild, and each of Dequeue's
// two passes walks it at most twice, so a dequeue costs O(classes).
type HTB struct {
	rootRate   float64 // bytes/sec available for borrowing
	rootBurst  float64 // bytes
	rootTokens float64
	lastUpdate float64

	classes map[ClassID]*HTBClass
	// byPrio holds every class ordered by (Prio, ID); levels splits it
	// into runs of equal Prio, in ascending Prio order.
	byPrio     []*HTBClass
	levels     []htbLevel
	queued     int // chunks held in classes (the direct queue excluded)
	classifier *Classifier
	defClass   ClassID
	stats      Stats

	// direct holds chunks that classify to a nonexistent class. Linux
	// htb sends such packets out unshaped at hardware speed ("direct
	// packets"); modelling this matters because a tc reconfiguration
	// momentarily has a classless htb root, and dropping in-flight
	// model updates there would deadlock synchronous training.
	direct        fifoQueue
	directPackets uint64

	// rrPos holds the round-robin cursor per priority value. A cursor
	// outlives the classes at its priority, so a priority that empties
	// and refills resumes where it left off.
	rrPos map[int]*int
}

// htbLevel is one priority level: its classes in ID order, a sub-slice
// of HTB.byPrio, and its round-robin cursor.
type htbLevel struct {
	classes []*HTBClass
	rr      *int
}

// HTBClassConfig configures a leaf class. Rates are bytes/sec; bursts
// are bytes. Zero Burst/CBurst/Quantum select reasonable defaults.
type HTBClassConfig struct {
	Rate    float64
	Ceil    float64
	Burst   float64
	CBurst  float64
	Prio    int
	Quantum float64
}

// HTBClass is a leaf class with its own FIFO.
type HTBClass struct {
	ID      ClassID
	cfg     HTBClassConfig
	tokens  float64
	ctokens float64
	deficit float64
	q       fifoQueue
	stats   Stats
}

// Config returns the class configuration.
func (c *HTBClass) Config() HTBClassConfig { return c.cfg }

// Stats returns per-class counters.
func (c *HTBClass) Stats() Stats { return c.stats }

// Len returns chunks queued in this class.
func (c *HTBClass) Len() int { return c.q.len() }

// defaultHTBBurst sizes a bucket so one maximum-size chunk always fits.
const defaultHTBBurst = 512 * 1024

// NewHTB creates an htb with the given link rate (bytes/sec). Chunks
// that classify to a nonexistent class fall into defClass; if that is
// also missing at enqueue time the chunk is dropped (matching htb's
// behaviour for an invalid default class).
func NewHTB(linkRate float64, defClass ClassID) *HTB {
	if linkRate <= 0 {
		panic("qdisc: htb link rate must be positive")
	}
	return &HTB{
		rootRate:   linkRate,
		rootBurst:  defaultHTBBurst,
		rootTokens: defaultHTBBurst,
		classes:    make(map[ClassID]*HTBClass),
		classifier: NewClassifier(defClass),
		defClass:   defClass,
		rrPos:      make(map[int]*int),
	}
}

// Classifier exposes the filter chain.
func (h *HTB) Classifier() *Classifier { return h.classifier }

// DefaultClass returns the fallback class id.
func (h *HTB) DefaultClass() ClassID { return h.defClass }

// SetDefaultClass changes the fallback class id.
func (h *HTB) SetDefaultClass(id ClassID) {
	h.defClass = id
	h.classifier.SetDefault(id)
}

// AddClass installs a new leaf class.
func (h *HTB) AddClass(id ClassID, cfg HTBClassConfig) error {
	if _, ok := h.classes[id]; ok {
		return fmt.Errorf("qdisc: htb class %d exists", id)
	}
	if cfg.Rate <= 0 {
		return fmt.Errorf("qdisc: htb class %d needs positive rate", id)
	}
	if cfg.Ceil <= 0 {
		cfg.Ceil = cfg.Rate
	}
	if cfg.Ceil < cfg.Rate {
		return fmt.Errorf("qdisc: htb class %d ceil %.0f < rate %.0f", id, cfg.Ceil, cfg.Rate)
	}
	if cfg.Burst <= 0 {
		cfg.Burst = defaultHTBBurst
	}
	if cfg.CBurst <= 0 {
		cfg.CBurst = defaultHTBBurst
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 256 * 1024
	}
	if cfg.Prio < 0 {
		cfg.Prio = 0
	}
	c := &HTBClass{ID: id, cfg: cfg, tokens: cfg.Burst, ctokens: cfg.CBurst}
	h.classes[id] = c
	h.byPrio = append(h.byPrio, c)
	h.reindex()
	return nil
}

// ChangeClass updates an existing class's configuration in place,
// preserving its queue (tc class change).
func (h *HTB) ChangeClass(id ClassID, cfg HTBClassConfig) error {
	c, ok := h.classes[id]
	if !ok {
		return fmt.Errorf("qdisc: htb class %d not found", id)
	}
	if cfg.Rate <= 0 {
		cfg.Rate = c.cfg.Rate
	}
	if cfg.Ceil <= 0 {
		cfg.Ceil = c.cfg.Ceil
	}
	if cfg.Ceil < cfg.Rate {
		return fmt.Errorf("qdisc: htb class %d ceil %.0f < rate %.0f", id, cfg.Ceil, cfg.Rate)
	}
	if cfg.Burst <= 0 {
		cfg.Burst = c.cfg.Burst
	}
	if cfg.CBurst <= 0 {
		cfg.CBurst = c.cfg.CBurst
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = c.cfg.Quantum
	}
	if cfg.Prio < 0 {
		cfg.Prio = c.cfg.Prio
	}
	c.cfg = cfg
	if c.tokens > cfg.Burst {
		c.tokens = cfg.Burst
	}
	if c.ctokens > cfg.CBurst {
		c.ctokens = cfg.CBurst
	}
	h.reindex()
	return nil
}

// DeleteClass removes a class. Deleting a non-empty class returns an
// error, matching tc's refusal to delete classes with active traffic.
func (h *HTB) DeleteClass(id ClassID) error {
	c, ok := h.classes[id]
	if !ok {
		return fmt.Errorf("qdisc: htb class %d not found", id)
	}
	if c.q.len() > 0 {
		return fmt.Errorf("qdisc: htb class %d is non-empty", id)
	}
	delete(h.classes, id)
	i := slices.Index(h.byPrio, c)
	h.byPrio = slices.Delete(h.byPrio, i, i+1)
	h.reindex()
	return nil
}

// reindex re-sorts byPrio by (Prio, ID) and rebuilds the levels.
func (h *HTB) reindex() {
	slices.SortFunc(h.byPrio, func(a, b *HTBClass) int {
		if c := cmp.Compare(a.cfg.Prio, b.cfg.Prio); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	h.levels = h.levels[:0]
	for lo := 0; lo < len(h.byPrio); {
		prio := h.byPrio[lo].cfg.Prio
		hi := lo + 1
		for hi < len(h.byPrio) && h.byPrio[hi].cfg.Prio == prio {
			hi++
		}
		rr := h.rrPos[prio]
		if rr == nil {
			rr = new(int)
			h.rrPos[prio] = rr
		}
		h.levels = append(h.levels, htbLevel{classes: h.byPrio[lo:hi], rr: rr})
		lo = hi
	}
}

// Class returns the leaf with the given id, or nil.
func (h *HTB) Class(id ClassID) *HTBClass { return h.classes[id] }

// Classes returns leaf ids in ascending order.
func (h *HTB) Classes() []ClassID {
	out := make([]ClassID, len(h.byPrio))
	for i, cl := range h.byPrio {
		out[i] = cl.ID
	}
	slices.Sort(out)
	return out
}

// DirectPackets returns how many chunks bypassed shaping because they
// classified to a nonexistent class.
func (h *HTB) DirectPackets() uint64 { return h.directPackets }

// Enqueue classifies and queues the chunk. Chunks whose class (and the
// default class) do not exist go to the direct queue, as in Linux htb.
func (h *HTB) Enqueue(c *Chunk, now float64) {
	id := h.classifier.Classify(c)
	cl, ok := h.classes[id]
	if !ok {
		cl, ok = h.classes[h.defClass]
	}
	if !ok {
		c.enqueuedAt = now
		h.direct.push(c)
		h.directPackets++
		h.stats.EnqueuedPackets++
		h.stats.EnqueuedBytes += uint64(c.Bytes)
		return
	}
	c.enqueuedAt = now
	cl.q.push(c)
	h.queued++
	cl.stats.EnqueuedPackets++
	cl.stats.EnqueuedBytes += uint64(c.Bytes)
	h.stats.EnqueuedPackets++
	h.stats.EnqueuedBytes += uint64(c.Bytes)
}

// tokEps absorbs floating-point residue in token arithmetic so that a
// Dequeue at the exact time ReadyAt promised always succeeds.
const tokEps = 1e-3 // bytes

// refill advances every token bucket to now.
func (h *HTB) refill(now float64) {
	dt := now - h.lastUpdate
	if dt <= 0 {
		return
	}
	h.lastUpdate = now
	h.rootTokens += h.rootRate * dt
	if h.rootTokens > h.rootBurst {
		h.rootTokens = h.rootBurst
	}
	for _, cl := range h.byPrio {
		cl.tokens += cl.cfg.Rate * dt
		if cl.tokens > cl.cfg.Burst {
			cl.tokens = cl.cfg.Burst
		}
		cl.ctokens += cl.cfg.Ceil * dt
		if cl.ctokens > cl.cfg.CBurst {
			cl.ctokens = cl.cfg.CBurst
		}
	}
}

// canSend reports whether a class has a chunk it may send: on its own
// guaranteed rate in the green pass, or by borrowing up to its ceil in
// the yellow pass.
func (c *HTBClass) canSend(green bool) bool {
	if c.q.len() == 0 {
		return false
	}
	if green {
		return c.tokens >= -tokEps
	}
	return c.ctokens >= -tokEps
}

// pick returns the class to serve in one pass, or nil if no class can
// send. Levels are tried in ascending Prio order. Within a level, the
// candidates are the classes that can send, in ID order; the level's
// cursor, taken modulo their count, selects one, and deficit round
// robin weighted by Quantum decides when the cursor moves on.
func (h *HTB) pick(green bool) *HTBClass {
	for _, lv := range h.levels {
		n := 0
		for _, cl := range lv.classes {
			if cl.canSend(green) {
				n++
			}
		}
		if n == 0 {
			continue
		}
		pos := *lv.rr % n
		i := 0
		for _, cl := range lv.classes {
			if !cl.canSend(green) {
				continue
			}
			if i < pos {
				i++
				continue
			}
			cl.deficit -= float64(cl.q.peek().Bytes)
			if cl.deficit <= 0 {
				cl.deficit += cl.cfg.Quantum
				if cl.deficit < 0 {
					cl.deficit = 0
				}
				*lv.rr = (pos + 1) % n
			}
			return cl
		}
	}
	return nil
}

// Dequeue returns the next chunk allowed to transmit at now, or nil if
// all non-empty classes are rate-gated.
func (h *HTB) Dequeue(now float64) *Chunk {
	// Token state is monotone: queries behind the token clock (e.g.
	// during a reconfiguration drain) evaluate at the clock instead.
	if now < h.lastUpdate {
		now = h.lastUpdate
	}
	h.refill(now)
	// Direct packets go out first, unshaped (Linux htb behaviour).
	if ch := h.direct.pop(); ch != nil {
		h.stats.DequeuedPackets++
		h.stats.DequeuedBytes += uint64(ch.Bytes)
		return ch
	}
	// Pass 1: green classes send on their own guaranteed rate.
	if cl := h.pick(true); cl != nil {
		ch := cl.q.pop()
		cl.tokens -= float64(ch.Bytes)
		cl.ctokens -= float64(ch.Bytes)
		h.charge(cl, ch)
		return ch
	}
	// Pass 2: yellow classes borrow root bandwidth in priority order.
	if h.rootTokens >= -tokEps {
		if cl := h.pick(false); cl != nil {
			ch := cl.q.pop()
			cl.ctokens -= float64(ch.Bytes)
			h.rootTokens -= float64(ch.Bytes)
			h.charge(cl, ch)
			return ch
		}
	}
	if h.Len() > 0 {
		h.stats.Overlimits++
	}
	return nil
}

// charge accounts a chunk just popped from cl.
func (h *HTB) charge(cl *HTBClass, ch *Chunk) {
	h.queued--
	cl.stats.DequeuedPackets++
	cl.stats.DequeuedBytes += uint64(ch.Bytes)
	h.stats.DequeuedPackets++
	h.stats.DequeuedBytes += uint64(ch.Bytes)
}

// ReadyAt reports the earliest time some class can transmit.
func (h *HTB) ReadyAt(now float64) float64 {
	if now < h.lastUpdate {
		now = h.lastUpdate
	}
	h.refill(now)
	if h.direct.len() > 0 {
		return now
	}
	ready := Never
	for _, cl := range h.byPrio {
		if cl.q.len() == 0 {
			continue
		}
		// Time until green: own bucket refills to zero.
		tGreen := now
		if cl.tokens < 0 {
			tGreen = now + -cl.tokens/cl.cfg.Rate
		}
		if tGreen < ready {
			ready = tGreen
		}
		// Time until yellow: both ceil bucket and root refill.
		tYellow := now
		if cl.ctokens < 0 {
			tYellow = now + -cl.ctokens/cl.cfg.Ceil
		}
		if h.rootTokens < 0 {
			tRoot := now + -h.rootTokens/h.rootRate
			if tRoot > tYellow {
				tYellow = tRoot
			}
		}
		if tYellow < ready {
			ready = tYellow
		}
	}
	return ready
}

// Len returns total queued chunks.
func (h *HTB) Len() int { return h.direct.len() + h.queued }

// BacklogBytes returns total queued bytes.
func (h *HTB) BacklogBytes() int64 {
	n := h.direct.bytes
	for _, cl := range h.byPrio {
		n += cl.q.bytes
	}
	return n
}

// Stats returns a copy of the aggregate counters; mutating it does not
// affect the qdisc.
func (h *HTB) Stats() Stats { return h.stats }

// BandDequeuedBytes returns cumulative dequeued bytes per class id as
// a fresh map (BandCounter).
func (h *HTB) BandDequeuedBytes() map[int]uint64 {
	out := make(map[int]uint64, len(h.byPrio))
	for _, cl := range h.byPrio {
		out[int(cl.ID)] = cl.stats.DequeuedBytes
	}
	return out
}

// Kind returns "htb".
func (h *HTB) Kind() string { return "htb" }
