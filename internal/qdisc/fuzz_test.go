package qdisc

import (
	"testing"
)

// fuzzReader consumes a fuzz input as a stream of small integers.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) done() bool { return r.pos >= len(r.data) }

func (r *fuzzReader) byte() byte {
	if r.done() {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// int31 returns a non-negative int derived from up to 4 bytes.
func (r *fuzzReader) int31() int {
	v := 0
	for i := 0; i < 4; i++ {
		v = v<<8 | int(r.byte())
	}
	if v < 0 {
		v = -v
	}
	return v
}

// key returns a classification key: mostly small non-negative ints, but
// also AnyValue and larger/negative values to stress wildcard handling.
func (r *fuzzReader) key() int {
	switch b := r.byte(); {
	case b < 32:
		return AnyValue
	case b < 64:
		return -int(b) // negative non-wildcard keys must not confuse matching
	default:
		return int(b) % 50
	}
}

// FuzzClassifier interprets the input as a program of filter-chain
// mutations (add/remove/clear/set-default with arbitrary port, job and
// mark keys) interleaved with classifications, and checks the chain's
// contract: Classify never panics, is deterministic, and only ever
// returns the default class or an installed filter's target.
func FuzzClassifier(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 5, 200, 2, 0x40, 1, 0x90, 9})
	f.Add([]byte{
		1, 100, 100, 100, 100, 3, // add a filter
		1, 10, 10, 10, 10, 4, // and another
		2, 200, 200, 200, 200, // classify
		3,    // remove some
		4, 7, // set default
		2, 0, 0, 0, 0, // classify again
		5, // clear
		2, 1, 2, 3, 4,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		cl := NewClassifier(ClassID(r.byte() % 8))
		for !r.done() {
			switch r.byte() % 6 {
			case 0, 1: // add a filter
				cl.Add(Filter{
					Pref: int(r.byte() % 10),
					Match: Match{
						SrcPort: r.key(),
						DstPort: r.key(),
						JobID:   r.key(),
						Mark:    r.key(),
					},
					Target: ClassID(r.byte() % 10),
				})
			case 2, 3: // classify an arbitrary chunk
				c := &Chunk{
					SrcPort: r.key(),
					DstPort: r.key(),
					JobID:   r.key(),
					Mark:    r.key(),
				}
				got := cl.Classify(c)
				if got2 := cl.Classify(c); got2 != got {
					t.Fatalf("classification not deterministic: %d then %d", got, got2)
				}
				if got != cl.Default() {
					found := false
					for _, fl := range cl.Filters() {
						if fl.Target == got {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("classified to %d, which no filter targets (default %d)",
							got, cl.Default())
					}
				}
			case 4: // remove an arbitrary subset
				pref := int(r.byte() % 10)
				before := cl.Len()
				removed := cl.RemoveWhere(func(fl Filter) bool { return fl.Pref == pref })
				if cl.Len() != before-removed {
					t.Fatalf("RemoveWhere accounting: %d - %d != %d", before, removed, cl.Len())
				}
			case 5:
				switch r.byte() % 4 {
				case 0:
					cl.Clear()
					if cl.Len() != 0 {
						t.Fatal("Clear left filters behind")
					}
				default:
					cl.SetDefault(ClassID(r.byte() % 10))
				}
			}
		}
		// The filter chain must be in (Pref, insertion) order.
		fs := cl.Filters()
		for i := 1; i < len(fs); i++ {
			if fs[i].Pref < fs[i-1].Pref {
				t.Fatalf("filter chain out of Pref order at %d", i)
			}
		}
	})
}

// checkHTBAccounting asserts the counters' conservation law: everything
// enqueued is either dequeued, dropped, or still queued.
func checkHTBAccounting(t *testing.T, h *HTB) {
	t.Helper()
	s := h.Stats()
	if got, want := h.BacklogBytes(), s.Backlog(); got != want {
		t.Fatalf("backlog accounting: queues hold %d bytes, stats imply %d", got, want)
	}
	if s.DequeuedBytes+s.DroppedBytes > s.EnqueuedBytes {
		t.Fatalf("conservation violated: out %d + dropped %d > in %d",
			s.DequeuedBytes, s.DroppedBytes, s.EnqueuedBytes)
	}
	if h.Len() < 0 || h.BacklogBytes() < 0 {
		t.Fatalf("negative backlog: len %d, bytes %d", h.Len(), h.BacklogBytes())
	}
}

// FuzzHTBDequeue interprets the input as a program of class mutations,
// arbitrary-key enqueues and time-advancing dequeues against an HTB,
// checking it never panics and the drop/backlog accounting stays
// consistent throughout.
func FuzzHTBDequeue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 2, 50, 10, 3, 5, 2, 60, 20, 3, 9})
	f.Add([]byte{
		0, 1, 10, 1, // add class 1
		0, 2, 20, 0, // add class 2
		2, 30, 8, // enqueue
		2, 40, 8,
		3, 10, // dequeue
		4, 1, 5, 0, // change class
		3, 200,
		5, 2, // delete class
		1, 3, // set default
		2, 99, 4,
		3, 255,
	})
	// Deficit round robin between two classes of equal priority: both
	// have rate 500 kB/s, ceil 1.8 MB/s and prio 0, with quanta of 10 kB
	// and 30 kB; each gets four 10 kB chunks by switching the default
	// class, and the drains then alternate between them.
	f.Add([]byte{
		0, 15, 66, 63, 1, // 1 MB/s link, default class 1
		0, 1, 0, 15, 66, 64, 0, 27, 119, 64, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 78, 32, // add class 1
		0, 2, 0, 15, 66, 64, 0, 27, 119, 64, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 156, 64, // add class 2
		2, 0, 0, 0, 0, 0, 0, 39, 15, // enqueue 10 kB to class 1
		2, 0, 0, 0, 0, 0, 0, 39, 15,
		2, 0, 0, 0, 0, 0, 0, 39, 15,
		2, 0, 0, 0, 0, 0, 0, 39, 15,
		1, 2, // default class 2
		2, 0, 0, 0, 0, 0, 0, 39, 15, // enqueue 10 kB to class 2
		2, 0, 0, 0, 0, 0, 0, 39, 15,
		2, 0, 0, 0, 0, 0, 0, 39, 15,
		2, 0, 0, 0, 0, 0, 0, 39, 15,
		3, 1, 3, 1, 3, 1, 3, 1, // dequeue every 10 ms
		7, 0, 7, 0, // drain the rest
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		h := NewHTB(1+float64(r.int31()%1_000_000), ClassID(r.byte()%6))
		now := 0.0
		flow := uint64(0)
		for !r.done() {
			switch r.byte() % 8 {
			case 0: // add a class (invalid configs must error, not panic)
				id := ClassID(r.byte() % 6)
				rate := float64(r.int31()%2_000_000) - 500_000 // may be <= 0
				ceil := float64(r.int31() % 2_000_000)
				_ = h.AddClass(id, HTBClassConfig{
					Rate:    rate,
					Ceil:    ceil,
					Burst:   float64(r.int31() % 100_000),
					CBurst:  float64(r.int31() % 100_000),
					Prio:    int(r.byte()%4) - 1,
					Quantum: float64(r.int31()%100_000) - 10_000,
				})
			case 1:
				h.SetDefaultClass(ClassID(r.byte() % 8))
			case 2: // enqueue a chunk with arbitrary classification keys
				flow++
				h.Enqueue(&Chunk{
					FlowID:  flow,
					JobID:   r.key(),
					SrcPort: r.key(),
					DstPort: r.key(),
					Mark:    r.key(),
					Bytes:   1 + int64(r.int31()%defaultHTBBurst),
				}, now)
			case 3: // advance time and dequeue
				now += float64(r.byte()) * 0.01
				before := h.BacklogBytes()
				if ch := h.Dequeue(now); ch != nil {
					if got := h.BacklogBytes(); got != before-ch.Bytes {
						t.Fatalf("dequeue of %d bytes moved backlog %d -> %d",
							ch.Bytes, before, got)
					}
				}
			case 4:
				_ = h.ChangeClass(ClassID(r.byte()%6), HTBClassConfig{
					Rate: float64(r.int31()%1_000_000) - 100_000,
					Ceil: float64(r.int31() % 1_000_000),
					Prio: int(r.byte()%4) - 1,
				})
			case 5:
				_ = h.DeleteClass(ClassID(r.byte() % 6))
			case 6: // ReadyAt must never promise a time a Dequeue refuses
				at := h.ReadyAt(now)
				if h.Len() > 0 && at >= Never {
					t.Fatalf("backlogged htb (%d chunks) reports ReadyAt=Never", h.Len())
				}
				if at < Never && at >= now {
					if ch := h.Dequeue(at); ch == nil && h.Len() > 0 {
						t.Fatalf("Dequeue(%g) failed after ReadyAt promised it", at)
					}
					now = at
				}
			case 7: // drain a little
				now += 1 + float64(r.byte())
				for i := 0; i < 4; i++ {
					if h.Dequeue(now) == nil {
						break
					}
				}
			}
			checkHTBAccounting(t, h)
		}
	})
}
