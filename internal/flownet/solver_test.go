package flownet

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", what, got, want, tol)
	}
}

func TestSingleFlowGetsFullCapacity(t *testing.T) {
	r := Solve([]float64{100}, []Flow{{Links: []int{0}, Weight: 1, BandLink: -1}})
	approx(t, r[0], 100, 1e-6, "lone flow")
}

func TestEqualFlowsSplitEvenly(t *testing.T) {
	fl := []Flow{
		{Links: []int{0}, Weight: 1, BandLink: -1},
		{Links: []int{0}, Weight: 1, BandLink: -1},
	}
	r := Solve([]float64{100}, fl)
	approx(t, r[0], 50, 1e-6, "flow 0")
	approx(t, r[1], 50, 1e-6, "flow 1")
}

func TestWeightedShare(t *testing.T) {
	fl := []Flow{
		{Links: []int{0}, Weight: 1, BandLink: -1},
		{Links: []int{0}, Weight: 3, BandLink: -1},
	}
	r := Solve([]float64{100}, fl)
	approx(t, r[0], 25, 1e-6, "weight-1 flow")
	approx(t, r[1], 75, 1e-6, "weight-3 flow")
}

// The classic progressive-filling example: two links, one flow on each,
// plus one flow crossing both. The shared flow bottlenecks on the tight
// link; the flow on the loose link picks up the residual.
func TestClassicMaxMin(t *testing.T) {
	caps := []float64{1, 2}
	fl := []Flow{
		{Links: []int{0}, Weight: 1, BandLink: -1},
		{Links: []int{1}, Weight: 1, BandLink: -1},
		{Links: []int{0, 1}, Weight: 1, BandLink: -1},
	}
	r := Solve(caps, fl)
	approx(t, r[0], 0.5, 1e-6, "flow on tight link")
	approx(t, r[1], 1.5, 1e-6, "flow on loose link")
	approx(t, r[2], 0.5, 1e-6, "crossing flow")
}

// Strict priority at the shared egress: green takes the whole link,
// yellow starves — the TensorLights mechanism.
func TestStrictPriorityStarvesYellow(t *testing.T) {
	fl := []Flow{
		{Links: []int{0}, Weight: 1, Band: 0, BandLink: 0},
		{Links: []int{0}, Weight: 1, Band: 1, BandLink: 0},
	}
	r := Solve([]float64{100}, fl)
	approx(t, r[0], 100, 1e-6, "green")
	approx(t, r[1], 0, 1e-6, "yellow")
}

// Work-conserving borrowing: when green is bottlenecked elsewhere,
// yellow gets the egress residual instead of idling it — HTB's ceil
// borrow, and the reason TensorLights preserves aggregate throughput.
func TestYellowBorrowsGreenResidual(t *testing.T) {
	caps := []float64{10, 4} // egress, green's remote bottleneck
	fl := []Flow{
		{Links: []int{0, 1}, Weight: 1, Band: 0, BandLink: 0},
		{Links: []int{0}, Weight: 1, Band: 1, BandLink: 0},
	}
	r := Solve(caps, fl)
	approx(t, r[0], 4, 1e-6, "green at remote bottleneck")
	approx(t, r[1], 6, 1e-6, "yellow on the residual")
}

// Three bands fill in order: band 0 saturates its bottleneck, band 1
// the next residual, band 2 gets nothing.
func TestThreeBandFill(t *testing.T) {
	caps := []float64{10, 3, 5}
	fl := []Flow{
		{Links: []int{0, 1}, Weight: 1, Band: 0, BandLink: 0},
		{Links: []int{0, 2}, Weight: 1, Band: 1, BandLink: 0},
		{Links: []int{0}, Weight: 1, Band: 2, BandLink: 0},
	}
	r := Solve(caps, fl)
	approx(t, r[0], 3, 1e-6, "band 0")
	approx(t, r[1], 5, 1e-6, "band 1")
	approx(t, r[2], 2, 1e-6, "band 2 residual")
}

func TestDownLinkZeroRate(t *testing.T) {
	fl := []Flow{
		{Links: []int{0}, Weight: 1, BandLink: -1},
		{Links: []int{1}, Weight: 1, BandLink: -1},
	}
	r := Solve([]float64{0, 100}, fl)
	approx(t, r[0], 0, 0, "flow on down link")
	approx(t, r[1], 100, 1e-6, "flow on live link")
}

// A yellow flow whose green contender sits on a down link must still be
// unblocked: the green freezes at zero, then yellow fills the egress.
func TestYellowUnblocksWhenGreenIsDowned(t *testing.T) {
	caps := []float64{10, 0}
	fl := []Flow{
		{Links: []int{0, 1}, Weight: 1, Band: 0, BandLink: 0},
		{Links: []int{0}, Weight: 1, Band: 1, BandLink: 0},
	}
	r := Solve(caps, fl)
	approx(t, r[0], 0, 0, "green on down link")
	approx(t, r[1], 10, 1e-6, "yellow fills the egress")
}

func TestDegenerateFlows(t *testing.T) {
	fl := []Flow{
		{Links: nil, Weight: 1, BandLink: -1},         // no links
		{Links: []int{0}, Weight: 0, BandLink: -1},    // weight defaults to 1
		{Links: []int{0}, Weight: -2.5, BandLink: -1}, // ditto
	}
	r := Solve([]float64{100}, fl)
	approx(t, r[0], 0, 0, "linkless flow")
	approx(t, r[1], 50, 1e-6, "zero-weight flow")
	approx(t, r[2], 50, 1e-6, "negative-weight flow")
}

func TestSolverScratchReuse(t *testing.T) {
	var s Solver
	caps := []float64{100, 50}
	fl := []Flow{
		{Links: []int{0}, Weight: 1, BandLink: -1},
		{Links: []int{0, 1}, Weight: 1, BandLink: -1},
	}
	first := append([]float64(nil), s.Solve(caps, fl, nil)...)
	var rates []float64
	for i := 0; i < 100; i++ {
		rates = s.Solve(caps, fl, rates[:0])
		for j := range rates {
			if rates[j] != first[j] {
				t.Fatalf("solve %d diverged: %v vs %v", i, rates, first)
			}
		}
	}
}
