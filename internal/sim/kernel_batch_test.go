package sim

import (
	"math/rand"
	"testing"
)

// buildTieHeavyWorkload schedules a random workload with many exact
// time ties onto k. Each event appends its model ID to *out;
// some events chain follow-ups, including same-time ones, to exercise
// mid-batch interference.
func buildTieHeavyWorkload(k *Kernel, rng *rand.Rand, out *[]int) {
	next := 0
	var add func(at float64, depth int)
	add = func(at float64, depth int) {
		id := next
		next++
		fn := func() {
			*out = append(*out, id)
			if depth > 0 && rng.Intn(3) == 0 {
				// Same-time follow-up scheduled mid-batch.
				add(k.Now(), depth-1)
			}
			if depth > 0 && rng.Intn(3) == 0 {
				add(k.Now()+float64(rng.Intn(3))*0.5, depth-1)
			}
		}
		if rng.Intn(2) == 0 {
			k.Post(at, fn)
		} else {
			k.Schedule(at, fn)
		}
	}
	for i := 0; i < 150; i++ {
		// Coarse times force large simultaneous runs.
		add(float64(rng.Intn(10)), 2)
	}
}

// buildLaneHeavyWorkload posts chains of PostArgAfter events with three
// repeated delays, as the chunk fabric does, so most events travel
// through the lanes; coarse delays make lane heads tie with each other
// and with heap events.
func buildLaneHeavyWorkload(k *Kernel, rng *rand.Rand, out *[]int) {
	delays := []Time{0.5, 1, 1.5}
	next := 0
	var fn func(any)
	post := func(d Time) {
		next++
		k.PostArgAfter(d, fn, next)
	}
	fn = func(a any) {
		*out = append(*out, a.(int))
		if next < 3000 {
			post(delays[rng.Intn(len(delays))])
		}
		if rng.Intn(4) == 0 {
			id := -a.(int)
			k.Post(k.Now()+float64(rng.Intn(3))*0.5, func() { *out = append(*out, id) })
		}
	}
	for i := 0; i < 50; i++ {
		post(delays[rng.Intn(len(delays))])
	}
}

// TestRunMatchesStepLoop pins Run's ordering contract: Run fires the
// exact same event sequence as the one-Step-at-a-time loop, including
// under same-time follow-ups scheduled mid-batch, on heap-only and on
// lane-heavy workloads.
func TestRunMatchesStepLoop(t *testing.T) {
	builders := []func(*Kernel, *rand.Rand, *[]int){buildTieHeavyWorkload, buildLaneHeavyWorkload}
	for trial := 0; trial < 80; trial++ {
		seed := int64(4000 + trial)
		build := builders[trial%len(builders)]

		var batched []int
		kb := NewKernel()
		build(kb, rand.New(rand.NewSource(seed)), &batched)
		kb.Run(nil)

		var stepped []int
		ks := NewKernel()
		build(ks, rand.New(rand.NewSource(seed)), &stepped)
		for ks.Step() {
		}

		if len(batched) != len(stepped) {
			t.Fatalf("trial %d: Run fired %d events, Step loop %d", trial, len(batched), len(stepped))
		}
		for i := range batched {
			if batched[i] != stepped[i] {
				t.Fatalf("trial %d: order diverges at %d: Run=%v Step=%v", trial, i, batched[i], stepped[i])
			}
		}
		if kb.Fired() != ks.Fired() || kb.Now() != ks.Now() {
			t.Fatalf("trial %d: Fired/Now mismatch: %d@%g vs %d@%g",
				trial, kb.Fired(), kb.Now(), ks.Fired(), ks.Now())
		}
	}
}

// TestRunStopMidBatchResumes stops Run in the middle of a run of
// same-time events and checks the unfired ones stay queued so a later
// Run resumes with identical total order.
func TestRunStopMidBatchResumes(t *testing.T) {
	k := NewKernel()
	var fired []int
	for i := 0; i < 10; i++ {
		id := i
		k.Post(1, func() { fired = append(fired, id) })
	}
	n := 0
	stopAfter3 := func() bool { n++; return n > 3 }
	k.Run(stopAfter3)
	if len(fired) != 3 {
		t.Fatalf("stopped run fired %d events, want 3", len(fired))
	}
	if k.Pending() != 7 {
		t.Fatalf("pending after stop = %d, want 7", k.Pending())
	}
	k.Run(nil)
	if len(fired) != 10 {
		t.Fatalf("resumed run total %d events, want 10", len(fired))
	}
	for i, id := range fired {
		if id != i {
			t.Fatalf("order broken across stop/resume: %v", fired)
		}
	}
}

// TestRunCancelWithinBatch has an early same-time event cancel a later
// one.
func TestRunCancelWithinBatch(t *testing.T) {
	k := NewKernel()
	var fired []string
	var victim *Event
	k.Post(1, func() {
		fired = append(fired, "canceler")
		k.Cancel(victim)
	})
	victim = k.Schedule(1, func() { fired = append(fired, "victim") })
	k.Post(1, func() { fired = append(fired, "bystander") })
	k.Run(nil)
	if len(fired) != 2 || fired[0] != "canceler" || fired[1] != "bystander" {
		t.Fatalf("fired = %v, want [canceler bystander]", fired)
	}
}

func TestPostArgDeliversArgument(t *testing.T) {
	k := NewKernel()
	type payload struct{ v int }
	var got []int
	sink := func(a any) { got = append(got, a.(*payload).v) }
	p1, p2 := &payload{1}, &payload{2}
	k.PostArg(2, sink, p2)
	k.PostArgAfter(1, sink, p1)
	k.Run(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

// TestPostArgPoolReuse checks PostArg events flow through the same free
// list as Post events: steady-state scheduling allocates no new Events.
func TestPostArgPoolReuse(t *testing.T) {
	k := NewKernel()
	// Ping-pong a counter through PostArg and assert the pool bounds
	// Event allocations.
	var pong func(a any)
	pong = func(a any) {
		n := a.(int)
		if n < 1000 {
			k.PostArgAfter(1, pong, n+1)
		}
	}
	k.PostArg(0, pong, 0)
	k.Run(nil)
	if k.Fired() != 1001 {
		t.Fatalf("fired %d, want 1001", k.Fired())
	}
	if k.EventAllocs() > 4 {
		t.Fatalf("PostArg not pooled: %d event allocs for %d fired", k.EventAllocs(), k.Fired())
	}
}

func TestPostArgNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PostArg(nil) did not panic")
		}
	}()
	NewKernel().PostArg(0, nil, 1)
}
