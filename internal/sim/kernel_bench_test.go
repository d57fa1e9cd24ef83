package sim

import "testing"

// BenchmarkKernelPost measures the pooled, handle-less schedule/fire
// path — the hot loop under simnet's per-chunk events. After warmup the
// free list serves every event, so allocs/op should be ~0.
func BenchmarkKernelPost(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		k.PostAfter(1, fn)
		k.Step()
	}
	b.ReportMetric(float64(k.EventAllocs())/float64(b.N), "eventallocs/op")
}

// BenchmarkKernelSchedule measures the handle-returning path, which
// must allocate a fresh Event per call (handles may outlive the fire).
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		k.ScheduleAfter(1, fn)
		k.Step()
	}
}

// BenchmarkKernelHeapChurn keeps a deep queue (1024 pending events) so
// every push/pop pays full sift depth — the heap's worst case.
func BenchmarkKernelHeapChurn(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	const depth = 1024
	// Seed the queue with a spread of deadlines.
	for i := 0; i < depth; i++ {
		k.Post(float64(i%37)+1, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Post(k.Now()+float64(i%37)+1, fn)
		k.Step()
	}
}

// BenchmarkKernelCancel measures scheduling plus cancellation plus the
// lazy discard when the canceled event surfaces.
func BenchmarkKernelCancel(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := k.ScheduleAfter(1, fn)
		k.Cancel(e)
		k.PostAfter(2, fn)
		k.Step()
	}
}

// BenchmarkKernelChunkDelays replays the event mix of the 21-job chunk
// fabric grid: PostArgAfter events with full-chunk service (262.144 us),
// propagation (20 us) and last-chunk service (32.992 us) delays in a
// 7:4:1 ratio, with 46 events pending. Each fired event posts its
// successor, so one op is one post plus one fire. Once the lanes' rings
// have grown, allocs/op should be ~0.
func BenchmarkKernelChunkDelays(b *testing.B) {
	const pending = 46
	mix := [12]Time{
		262.144e-6, 20e-6, 262.144e-6, 20e-6, 262.144e-6, 262.144e-6,
		20e-6, 262.144e-6, 32.992e-6, 262.144e-6, 20e-6, 262.144e-6,
	}
	k := NewKernel()
	next := 0
	var fn func(any)
	fn = func(any) {
		k.PostArgAfter(mix[next%len(mix)], fn, nil)
		next++
	}
	for i := 0; i < pending; i++ {
		fn(nil)
	}
	for i := 0; i < 10*pending; i++ { // warm the pool and the rings
		k.Step()
	}
	allocs := k.EventAllocs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
	b.ReportMetric(float64(k.EventAllocs()-allocs)/float64(b.N), "eventallocs/op")
}
