package sim

import (
	"math/rand"
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
