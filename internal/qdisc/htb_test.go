package qdisc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

const linkRate = 1.25e9 // 10 Gbps in bytes/sec

// newTLsHTB builds the TensorLights-style tree: tiny guaranteed rates,
// full-link ceils, one class per band.
func newTLsHTB(bands int) *HTB {
	h := NewHTB(linkRate, ClassID(bands-1))
	for b := 0; b < bands; b++ {
		if err := h.AddClass(ClassID(b), HTBClassConfig{
			Rate: 125_000, Ceil: linkRate, Prio: b,
		}); err != nil {
			panic(err)
		}
		h.Classifier().Add(Filter{Pref: b, Match: MatchSrcPort(5000 + b), Target: ClassID(b)})
	}
	return h
}

// drainAll services the htb like a line-rate device, returning chunks in
// transmission order.
func drainAll(h *HTB, start float64) []*Chunk {
	var out []*Chunk
	now := start
	for h.Len() > 0 {
		c := h.Dequeue(now)
		if c == nil {
			at := h.ReadyAt(now)
			if at >= Never {
				break
			}
			now = at
			continue
		}
		out = append(out, c)
		now += float64(c.Bytes) / linkRate
	}
	return out
}

func TestHTBPriorityBorrowOrder(t *testing.T) {
	h := newTLsHTB(3)
	// Fill low-priority band first, then high: high must transmit first
	// once its own chunks arrive (after the tiny green burst is spent).
	for i := 0; i < 8; i++ {
		h.Enqueue(mkChunk(uint64(100+i), 5002, 256<<10), 0)
	}
	for i := 0; i < 8; i++ {
		h.Enqueue(mkChunk(uint64(i), 5000, 256<<10), 0)
	}
	got := drainAll(h, 0)
	if len(got) != 16 {
		t.Fatalf("drained %d of 16", len(got))
	}
	// Count how many band-0 chunks appear in the first 8 slots.
	band0First := 0
	lastBand0 := -1
	for i, c := range got {
		if c.SrcPort == 5000 {
			if i < 8 {
				band0First++
			}
			lastBand0 = i
		}
	}
	// The low band's guaranteed (green) burst legitimately leaks a few
	// chunks — that is htb's rate guarantee — but the high band must
	// dominate the head of the schedule and fully finish well before
	// the low band's tail.
	if band0First < 5 {
		t.Fatalf("only %d of first 8 transmissions were high priority", band0First)
	}
	if lastBand0 > 11 {
		t.Fatalf("high band finished at position %d of 16", lastBand0)
	}
}

func TestHTBWorkConserving(t *testing.T) {
	h := newTLsHTB(6)
	total := int64(0)
	for b := 0; b < 6; b++ {
		for i := 0; i < 4; i++ {
			h.Enqueue(mkChunk(uint64(b*10+i), 5000+b, 256<<10), 0)
			total += 256 << 10
		}
	}
	got := drainAll(h, 0)
	var bytes int64
	for _, c := range got {
		bytes += c.Bytes
	}
	if bytes != total {
		t.Fatalf("transmitted %d of %d bytes", bytes, total)
	}
}

func TestHTBGreenRateConformance(t *testing.T) {
	// A single class with rate R and ceil R (no borrowing headroom
	// beyond its bucket) must average ~R bytes/sec over a long drain.
	h := NewHTB(linkRate, 0)
	rate := 10e6 // 10 MB/s
	if err := h.AddClass(0, HTBClassConfig{Rate: rate, Ceil: rate, Burst: 256 << 10, CBurst: 256 << 10}); err != nil {
		t.Fatal(err)
	}
	n := 40
	for i := 0; i < n; i++ {
		h.Enqueue(mkChunk(uint64(i), 5000, 256<<10), 0)
	}
	now := 0.0
	for h.Len() > 0 {
		c := h.Dequeue(now)
		if c == nil {
			now = h.ReadyAt(now)
			continue
		}
	}
	totalBytes := float64(n * (256 << 10))
	// now is when the last chunk became eligible; effective rate must be
	// within 20% of configured (bursts allow some slack).
	eff := totalBytes / now
	if eff < 0.8*rate || eff > 1.5*rate {
		t.Fatalf("effective rate %.0f, configured %.0f", eff, rate)
	}
}

func TestHTBCeilCapsBorrowing(t *testing.T) {
	// Class with ceil = rate = 10MB/s must not exceed it even when the
	// root has spare capacity.
	h := NewHTB(linkRate, 0)
	if err := h.AddClass(0, HTBClassConfig{Rate: 5e6, Ceil: 10e6, Burst: 256 << 10, CBurst: 256 << 10}); err != nil {
		t.Fatal(err)
	}
	n := 40
	for i := 0; i < n; i++ {
		h.Enqueue(mkChunk(uint64(i), 5000, 256<<10), 0)
	}
	now := 0.0
	for h.Len() > 0 {
		c := h.Dequeue(now)
		if c == nil {
			now = h.ReadyAt(now)
			continue
		}
	}
	eff := float64(n*(256<<10)) / now
	if eff > 1.5*10e6 {
		t.Fatalf("class exceeded ceil: %.0f bytes/sec", eff)
	}
}

func TestHTBDRRQuantumSharing(t *testing.T) {
	// Two same-priority classes with 3:1 quantum should split service
	// roughly 3:1 while both are backlogged.
	h := NewHTB(linkRate, 0)
	_ = h.AddClass(0, HTBClassConfig{Rate: 125_000, Ceil: linkRate, Prio: 0, Quantum: 768 << 10})
	_ = h.AddClass(1, HTBClassConfig{Rate: 125_000, Ceil: linkRate, Prio: 0, Quantum: 256 << 10})
	h.Classifier().Add(Filter{Pref: 0, Match: MatchSrcPort(5000), Target: 0})
	h.Classifier().Add(Filter{Pref: 1, Match: MatchSrcPort(5001), Target: 1})
	for i := 0; i < 40; i++ {
		h.Enqueue(mkChunk(uint64(i), 5000, 256<<10), 0)
		h.Enqueue(mkChunk(uint64(100+i), 5001, 256<<10), 0)
	}
	got := drainAll(h, 0)
	c0 := 0
	for _, c := range got[:32] {
		if c.SrcPort == 5000 {
			c0++
		}
	}
	if c0 < 20 || c0 > 28 {
		t.Fatalf("quantum 3:1 gave class0 %d of first 32 (want ~24)", c0)
	}
}

func TestHTBDirectQueue(t *testing.T) {
	h := NewHTB(linkRate, 5) // default class doesn't exist
	h.Enqueue(mkChunk(1, 5000, 100), 0)
	if h.DirectPackets() != 1 {
		t.Fatalf("direct packets %d", h.DirectPackets())
	}
	if h.Len() != 1 {
		t.Fatal("direct chunk not counted in Len")
	}
	if h.ReadyAt(0) != 0 {
		t.Fatal("direct chunk must be ready immediately")
	}
	c := h.Dequeue(0)
	if c == nil || c.FlowID != 1 {
		t.Fatal("direct chunk not dequeued")
	}
	st := h.Stats()
	if st.DroppedPackets != 0 {
		t.Fatal("direct traffic must not be counted as dropped")
	}
}

func TestHTBDirectBeforeClasses(t *testing.T) {
	h := newTLsHTB(2)
	h.Enqueue(mkChunk(1, 5000, 100), 0) // class 0
	h.Enqueue(mkChunk(2, 7777, 100), 0) // default class 1 exists -> classified
	// Remove classes' filters and point default at a hole: new chunk is direct.
	h.SetDefaultClass(42)
	h.Classifier().Clear()
	h.Enqueue(mkChunk(3, 5000, 100), 0)
	c := h.Dequeue(0)
	if c.FlowID != 3 {
		t.Fatalf("direct chunk must transmit first, got flow %d", c.FlowID)
	}
}

func TestHTBClassManagement(t *testing.T) {
	h := NewHTB(linkRate, 0)
	if err := h.AddClass(0, HTBClassConfig{Rate: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddClass(0, HTBClassConfig{Rate: 1e6}); err == nil {
		t.Fatal("duplicate class accepted")
	}
	if err := h.AddClass(1, HTBClassConfig{}); err == nil {
		t.Fatal("class without rate accepted")
	}
	if err := h.AddClass(1, HTBClassConfig{Rate: 2e6, Ceil: 1e6}); err == nil {
		t.Fatal("ceil < rate accepted")
	}
	if err := h.ChangeClass(9, HTBClassConfig{Rate: 1e6}); err == nil {
		t.Fatal("change of missing class accepted")
	}
	if err := h.ChangeClass(0, HTBClassConfig{Prio: 3}); err != nil {
		t.Fatal(err)
	}
	if h.Class(0).Config().Prio != 3 {
		t.Fatal("prio change not applied")
	}
	if h.Class(0).Config().Rate != 1e6 {
		t.Fatal("change must preserve unspecified rate")
	}
	h.Enqueue(mkChunk(1, 0, 10), 0) // default class 0
	if err := h.DeleteClass(0); err == nil {
		t.Fatal("deleted non-empty class")
	}
	if h.Dequeue(0) == nil {
		t.Fatal("dequeue")
	}
	if err := h.DeleteClass(0); err != nil {
		t.Fatal(err)
	}
	if err := h.DeleteClass(0); err == nil {
		t.Fatal("double delete accepted")
	}
	if len(h.Classes()) != 0 {
		t.Fatal("classes left")
	}
}

func TestHTBDefaultClassFallback(t *testing.T) {
	h := newTLsHTB(4)
	h.Enqueue(mkChunk(1, 9999, 64), 0) // unmatched -> default class 3
	if h.Class(3).Len() != 1 {
		t.Fatal("unmatched chunk not in default class")
	}
}

// Property: ReadyAt never promises a time at which Dequeue still fails
// (the invariant behind the device wake-up loop).
func TestHTBReadyAtDequeueAgreement(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		h := newTLsHTB(3)
		now := 0.0
		for i, s := range sizes {
			b := int64(s)*1024 + 512
			h.Enqueue(mkChunk(uint64(i), 5000+i%4, b), now)
		}
		for h.Len() > 0 {
			at := h.ReadyAt(now)
			if at >= Never {
				return false // non-empty qdisc must eventually be ready
			}
			c := h.Dequeue(at)
			if c == nil {
				return false // ReadyAt lied
			}
			now = at + float64(c.Bytes)/linkRate
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Byte conservation through arbitrary enqueue/dequeue interleaving.
func TestHTBConservationProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		h := newTLsHTB(6)
		var in, out int64
		now := 0.0
		for i, s := range sizes {
			b := int64(s)*100 + 1
			in += b
			h.Enqueue(mkChunk(uint64(i), 5000+i%8, b), now)
			if i%3 == 0 {
				if c := h.Dequeue(now); c != nil {
					out += c.Bytes
					now += float64(c.Bytes) / linkRate
				}
			}
		}
		for _, c := range drainAll(h, now) {
			out += c.Bytes
		}
		return in == out && h.BacklogBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHTBPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHTB(0) did not panic")
		}
	}()
	NewHTB(0, 0)
}

func TestHTBKind(t *testing.T) {
	if newTLsHTB(2).Kind() != "htb" {
		t.Fatal("kind")
	}
}

// Steady-state Enqueue, Dequeue and ReadyAt through a 16-class htb
// allocate nothing.
func TestHTBDataPathAllocatesNothing(t *testing.T) {
	const classes = 16
	h := NewHTB(linkRate, 0)
	for i := 0; i < classes; i++ {
		id := ClassID(i)
		if err := h.AddClass(id, HTBClassConfig{Rate: 125_000, Ceil: linkRate, Prio: i % 6}); err != nil {
			t.Fatal(err)
		}
		h.Classifier().Add(Filter{Pref: 1, Match: MatchSrcPort(5000 + i), Target: id})
	}
	for i := 0; i < 4*classes; i++ {
		h.Enqueue(mkChunk(uint64(i), 5000+i%classes, 64<<10), 0)
	}
	now := 0.0
	step := func() {
		ch := h.Dequeue(now)
		if ch == nil {
			now = h.ReadyAt(now)
			return
		}
		now += float64(ch.Bytes) / linkRate
		h.Enqueue(ch, now)
		h.ReadyAt(now)
	}
	for i := 0; i < 10_000; i++ { // let every queue reach its steady capacity
		step()
	}
	if allocs := testing.AllocsPerRun(10_000, step); allocs != 0 {
		t.Fatalf("steady-state enqueue+dequeue+ReadyAt allocates %.1f times per op", allocs)
	}
}

// legacyHTB serves an HTB the way Dequeue did before the single-walk
// rewrite: prioLevels collects and sorts the distinct priorities of the
// backlogged classes on every call, and pickDRR rebuilds each level's
// round-robin ring. It is the scheduling-order reference for
// TestHTBMatchesLegacyOrder. green and yellow count the chunks each
// pass served.
type legacyHTB struct {
	*HTB
	rrPos         map[int]int
	green, yellow int
}

func (h *legacyHTB) prioLevels() []int {
	seen := map[int]bool{}
	var levels []int
	for _, id := range h.Classes() {
		cl := h.classes[id]
		if cl.q.len() == 0 {
			continue
		}
		if !seen[cl.cfg.Prio] {
			seen[cl.cfg.Prio] = true
			levels = append(levels, cl.cfg.Prio)
		}
	}
	sort.Ints(levels)
	return levels
}

func (h *legacyHTB) pickDRR(level int, eligible func(*HTBClass) bool) *HTBClass {
	var ring []*HTBClass
	for _, id := range h.Classes() {
		cl := h.classes[id]
		if cl.cfg.Prio == level && cl.q.len() > 0 && eligible(cl) {
			ring = append(ring, cl)
		}
	}
	if len(ring) == 0 {
		return nil
	}
	pos := h.rrPos[level] % len(ring)
	cl := ring[pos]
	head := cl.q.peek()
	cl.deficit -= float64(head.Bytes)
	if cl.deficit <= 0 {
		cl.deficit += cl.cfg.Quantum
		if cl.deficit < 0 {
			cl.deficit = 0
		}
		h.rrPos[level] = (pos + 1) % len(ring)
	}
	return cl
}

func (h *legacyHTB) Dequeue(now float64) *Chunk {
	if now < h.lastUpdate {
		now = h.lastUpdate
	}
	h.refill(now)
	if ch := h.direct.pop(); ch != nil {
		h.stats.DequeuedPackets++
		h.stats.DequeuedBytes += uint64(ch.Bytes)
		return ch
	}
	for _, level := range h.prioLevels() {
		cl := h.pickDRR(level, func(c *HTBClass) bool { return c.tokens >= -tokEps })
		if cl == nil {
			continue
		}
		ch := cl.q.pop()
		cl.tokens -= float64(ch.Bytes)
		cl.ctokens -= float64(ch.Bytes)
		h.charge(cl, ch)
		h.green++
		return ch
	}
	if h.rootTokens >= -tokEps {
		for _, level := range h.prioLevels() {
			cl := h.pickDRR(level, func(c *HTBClass) bool { return c.ctokens >= -tokEps })
			if cl == nil {
				continue
			}
			ch := cl.q.pop()
			cl.ctokens -= float64(ch.Bytes)
			h.rootTokens -= float64(ch.Bytes)
			h.charge(cl, ch)
			h.yellow++
			return ch
		}
	}
	if h.Len() > 0 {
		h.stats.Overlimits++
	}
	return nil
}

// classStats snapshots every class's counters and queue length.
func classStats(h *HTB) string {
	out := ""
	for _, id := range h.Classes() {
		cl := h.Class(id)
		out += fmt.Sprintf("%d:%+v/%d ", id, cl.Stats(), cl.Len())
	}
	return out
}

// TestHTBMatchesLegacyOrder drives the htb and the legacy reference
// through identical random programs (equal and distinct priorities,
// mixed quanta, priority changes, deletions, traffic to missing
// classes) and requires the same transmission order, the same ReadyAt
// answers and the same counters.
func TestHTBMatchesLegacyOrder(t *testing.T) {
	var green, yellow int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const maxClasses = 8
		def := ClassID(rng.Intn(maxClasses + 2))
		got, ref := NewHTB(linkRate, def), &legacyHTB{HTB: NewHTB(linkRate, def), rrPos: map[int]int{}}
		for i := 0; i < maxClasses+2; i++ {
			f := Filter{Pref: 1, Match: MatchSrcPort(5000 + i), Target: ClassID(i)}
			got.Classifier().Add(f)
			ref.Classifier().Add(f)
		}
		quanta := []float64{0, 1500, 64 << 10, 300 << 10}
		randCfg := func() HTBClassConfig {
			rate := 125_000.0
			if rng.Intn(3) == 0 {
				rate = linkRate / float64(2+rng.Intn(8))
			}
			return HTBClassConfig{
				Rate:    rate,
				Ceil:    linkRate / float64(1+rng.Intn(2)),
				Prio:    rng.Intn(3),
				Quantum: quanta[rng.Intn(len(quanta))],
			}
		}
		now := 0.0
		flow := uint64(0)
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(20); {
			case r < 2:
				id, cfg := ClassID(rng.Intn(maxClasses)), randCfg()
				e1, e2 := got.AddClass(id, cfg), ref.AddClass(id, cfg)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d op %d: AddClass errors %v vs %v", seed, op, e1, e2)
				}
			case r < 3:
				id := ClassID(rng.Intn(maxClasses))
				cfg := HTBClassConfig{Prio: rng.Intn(3), Quantum: quanta[rng.Intn(len(quanta))]}
				e1, e2 := got.ChangeClass(id, cfg), ref.ChangeClass(id, cfg)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d op %d: ChangeClass errors %v vs %v", seed, op, e1, e2)
				}
			case r < 4:
				id := ClassID(rng.Intn(maxClasses))
				e1, e2 := got.DeleteClass(id), ref.DeleteClass(id)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d op %d: DeleteClass errors %v vs %v", seed, op, e1, e2)
				}
			case r < 11:
				flow++
				port := 5000 + rng.Intn(maxClasses+3)
				bytes := int64(1 + rng.Intn(256<<10))
				got.Enqueue(mkChunk(flow, port, bytes), now)
				ref.Enqueue(mkChunk(flow, port, bytes), now)
			default:
				if rng.Intn(4) == 0 {
					now += rng.Float64() * 1e-3
				}
				a, b := got.Dequeue(now), ref.Dequeue(now)
				if (a == nil) != (b == nil) || (a != nil && a.FlowID != b.FlowID) {
					t.Fatalf("seed %d op %d: dequeued %v, legacy dequeued %v", seed, op, a, b)
				}
				if a != nil {
					now += float64(a.Bytes) / linkRate
					continue
				}
				ra, rb := got.ReadyAt(now), ref.ReadyAt(now)
				if ra != rb {
					t.Fatalf("seed %d op %d: ReadyAt %g, legacy %g", seed, op, ra, rb)
				}
				if ra < Never {
					now = ra
				}
			}
		}
		if got.Stats() != ref.Stats() {
			t.Fatalf("seed %d: stats %+v, legacy %+v", seed, got.Stats(), ref.Stats())
		}
		if a, b := classStats(got), classStats(ref.HTB); a != b {
			t.Fatalf("seed %d: class stats\n%s\nlegacy\n%s", seed, a, b)
		}
		if !reflect.DeepEqual(got.BandDequeuedBytes(), ref.BandDequeuedBytes()) {
			t.Fatalf("seed %d: band counters differ", seed)
		}
		green += ref.green
		yellow += ref.yellow
	}
	if green == 0 || yellow == 0 {
		t.Fatalf("programs served %d green and %d yellow chunks; want both passes", green, yellow)
	}
}
