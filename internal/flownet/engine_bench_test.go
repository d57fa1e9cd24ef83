package flownet

import (
	"testing"

	"repro/internal/sim"
)

// smallComponentSizes is the number of flows in each re-solved
// component, in roughly the proportions measured on the open-world
// trials: about a quarter of re-solves touch no flow, a quarter touch
// one, and the rest 2-7 or a few more (2.5 flows on average).
var smallComponentSizes = []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6, 7, 9}

// BenchmarkEngineSmallComponents times one re-solve cycle — a clock
// advance, a capacity change on one component's core link and the
// batched flush that re-solves that component and re-arms the
// completion event — over a fabric of independent components sized by
// smallComponentSizes. The reference sub-benchmark runs the engine the
// fast paths replaced, on the same program.
func BenchmarkEngineSmallComponents(b *testing.B) {
	for _, bc := range []struct {
		name string
		mk   func(k *sim.Kernel, onDone func(FlowID, any)) engineAPI
	}{{"engine", newEngineAPI}, {"reference", newRefEngineAPI}} {
		b.Run(bc.name, func(b *testing.B) {
			k := sim.NewKernel()
			e := bc.mk(k, func(FlowID, any) {})
			var cores []int
			id := FlowID(0)
			for g, n := range smallComponentSizes {
				egress := e.AddLink(1e9)
				core := e.AddLink(6e8)
				cores = append(cores, core)
				for j := 0; j < n; j++ {
					ingress := e.AddLink(1e9)
					band := 0
					if g%3 == 0 {
						band = j % 2 // every third component mixes bands
					}
					id++
					e.AddFlow(id, []int{egress, core, ingress}, egress, band, float64(1+j%4), 1e18, nil)
				}
			}
			now := 0.0
			k.RunUntil(now)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 1e-4
				k.RunUntil(now)
				c := 6e8
				if (i/len(cores))%2 == 1 {
					c = 4e8
				}
				e.SetLinkCap(cores[i%len(cores)], c)
				k.RunUntil(now)
			}
		})
	}
}
