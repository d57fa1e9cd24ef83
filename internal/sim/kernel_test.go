package sim

import (
	"testing"
)

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(3.0, func() { got = append(got, 3) })
	k.Schedule(1.0, func() { got = append(got, 1) })
	k.Schedule(2.0, func() { got = append(got, 2) })
	k.Run(nil)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if k.Now() != 3.0 {
		t.Fatalf("clock at %v, want 3.0", k.Now())
	}
}

func TestKernelTieBreakBySeq(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(1.0, func() { got = append(got, i) })
	}
	k.Run(nil)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(1.0, func() { fired = true })
	k.Cancel(e)
	k.Run(nil)
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("event not marked canceled")
	}
	// Cancelling nil and double-cancel are no-ops.
	k.Cancel(nil)
	k.Cancel(e)
}

func TestKernelScheduleDuringEvent(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Schedule(1.0, func() {
		order = append(order, "first")
		k.ScheduleAfter(0.5, func() { order = append(order, "second") })
	})
	k.Run(nil)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("nested scheduling order %v", order)
	}
	if k.Now() != 1.5 {
		t.Fatalf("clock %v, want 1.5", k.Now())
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(5.0, func() {})
	k.Run(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.Schedule(1.0, func() {})
}

func TestKernelScheduleNilFuncPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("nil func did not panic")
		}
	}()
	k.Schedule(1.0, nil)
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		k.Schedule(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2", fired)
	}
	if k.Now() != 2.5 {
		t.Fatalf("clock %v, want 2.5", k.Now())
	}
	k.Run(nil)
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestKernelRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel()
	k.RunUntil(10)
	if k.Now() != 10 {
		t.Fatalf("idle clock %v, want 10", k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 100; i++ {
		k.Schedule(float64(i), func() { count++ })
	}
	k.Run(func() bool { return count >= 10 })
	if count != 10 {
		t.Fatalf("stop predicate ignored: fired %d", count)
	}
}

func TestKernelMaxEventsPanics(t *testing.T) {
	k := NewKernel()
	k.MaxEvents = 5
	var loop func()
	loop = func() { k.ScheduleAfter(1, loop) }
	k.ScheduleAfter(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not panic")
		}
	}()
	k.Run(nil)
}

func TestKernelStepEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEventAccessors(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(2.5, func() {})
	if e.At() != 2.5 {
		t.Fatalf("At %v", e.At())
	}
	if !e.Pending() {
		t.Fatal("queued event not pending")
	}
	k.Run(nil)
	if e.Pending() {
		t.Fatal("fired event still pending")
	}
	if k.Fired() != 1 {
		t.Fatalf("Fired %d, want 1", k.Fired())
	}
}

func TestKernelManyEventsHeapStress(t *testing.T) {
	k := NewKernel()
	rng := NewRNG(99)
	n := 5000
	var last float64 = -1
	bad := false
	for i := 0; i < n; i++ {
		at := rng.Float64() * 100
		k.Schedule(at, func() {
			if k.Now() < last {
				bad = true
			}
			last = k.Now()
		})
	}
	k.Run(nil)
	if bad {
		t.Fatal("clock went backwards")
	}
	if k.Fired() != uint64(n) {
		t.Fatalf("fired %d of %d", k.Fired(), n)
	}
}

func TestKernelCancelInterleaved(t *testing.T) {
	k := NewKernel()
	rng := NewRNG(7)
	events := make([]*Event, 0, 1000)
	fired := 0
	for i := 0; i < 1000; i++ {
		events = append(events, k.Schedule(rng.Float64()*10, func() { fired++ }))
	}
	canceled := 0
	for i := 0; i < 1000; i += 3 {
		k.Cancel(events[i])
		canceled++
	}
	k.Run(nil)
	if fired != 1000-canceled {
		t.Fatalf("fired %d, want %d", fired, 1000-canceled)
	}
}
