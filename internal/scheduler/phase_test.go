package scheduler

import (
	"math"
	"testing"
)

func TestCircularOverlap(t *testing.T) {
	cases := []struct {
		a1, l1, a2, l2, want float64
	}{
		{0, 0.25, 0.5, 0.25, 0},     // disjoint
		{0, 0.25, 0, 0.25, 0.25},    // identical
		{0, 0.5, 0.25, 0.5, 0.25},   // half overlap
		{0.9, 0.2, 0, 0.05, 0.05},   // wraparound arc 1 covers arc 2
		{0, 0.05, 0.9, 0.2, 0.05},   // symmetric case
		{0, 1, 0.3, 0.4, 0.4},       // full circle vs arc
		{0.75, 0.5, 0.2, 0.1, 0.05}, // wrap partial
		{0.1, 0.2, 0.25, 0.2, 0.05}, // plain partial
	}
	for i, c := range cases {
		got := circularOverlap(c.a1, c.l1, c.a2, c.l2)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: overlap(%g,%g,%g,%g) = %g, want %g",
				i, c.a1, c.l1, c.a2, c.l2, got, c.want)
		}
		// Overlap is symmetric.
		rev := circularOverlap(c.a2, c.l2, c.a1, c.l1)
		if math.Abs(got-rev) > 1e-12 {
			t.Errorf("case %d: overlap not symmetric: %g vs %g", i, got, rev)
		}
	}
}

func TestInterleaveShiftAvoidsCollision(t *testing.T) {
	// Two jobs, identical period 1 s, burst 0.25 s, same anchor: the
	// new job should shift away from the incumbent's burst.
	other := PhaseJob{PeriodSec: 1, AnchorSec: 0, BurstSec: 0.25, Weight: 1}
	job := PhaseJob{PeriodSec: 1, AnchorSec: 0, BurstSec: 0.25}
	shift := InterleaveShift(job, []PhaseJob{other}, 16)
	if shift <= 0 || shift >= 1 {
		t.Fatalf("expected shift in (0, 1), got %g", shift)
	}
	// After shifting, the bursts must not overlap.
	ov := circularOverlap(job.fraction(job.AnchorSec+shift), job.arcLen(),
		other.fraction(other.AnchorSec), other.arcLen())
	if ov > 1e-12 {
		t.Fatalf("shifted job still overlaps incumbent by %g", ov)
	}
}

func TestInterleaveShiftZeroWhenClear(t *testing.T) {
	// Incumbent's burst sits in the second half of the period; the new
	// job's burst already lands in the first half — no shift needed.
	other := PhaseJob{PeriodSec: 1, AnchorSec: 0.5, BurstSec: 0.2, Weight: 1}
	job := PhaseJob{PeriodSec: 1, AnchorSec: 0, BurstSec: 0.2}
	if shift := InterleaveShift(job, []PhaseJob{other}, 16); shift != 0 {
		t.Fatalf("expected no shift, got %g", shift)
	}
}

func TestInterleaveShiftNoNeighbors(t *testing.T) {
	job := PhaseJob{PeriodSec: 1, AnchorSec: 0, BurstSec: 0.5}
	if shift := InterleaveShift(job, nil, 16); shift != 0 {
		t.Fatalf("expected no shift with no neighbors, got %g", shift)
	}
	if shift := InterleaveShift(PhaseJob{}, []PhaseJob{job}, 16); shift != 0 {
		t.Fatalf("expected no shift for degenerate job, got %g", shift)
	}
}

func TestInterleaveShiftWeighted(t *testing.T) {
	// Bursts cover the whole circle between them; the heavier neighbor
	// must be the one avoided.
	heavy := PhaseJob{PeriodSec: 1, AnchorSec: 0, BurstSec: 0.5, Weight: 3}
	light := PhaseJob{PeriodSec: 1, AnchorSec: 0.5, BurstSec: 0.5, Weight: 1}
	job := PhaseJob{PeriodSec: 1, AnchorSec: 0, BurstSec: 0.25}
	shift := InterleaveShift(job, []PhaseJob{heavy, light}, 16)
	pos := job.fraction(job.AnchorSec + shift)
	if pos < 0.5 || pos+job.arcLen() > 1+1e-12 {
		t.Fatalf("expected burst inside the light job's half, got position %g", pos)
	}
}

func TestInterleaveShiftDeterministicTies(t *testing.T) {
	// All slots equally bad (incumbent covers the full circle): the
	// earliest slot — zero shift — must win.
	other := PhaseJob{PeriodSec: 1, AnchorSec: 0, BurstSec: 1, Weight: 1}
	job := PhaseJob{PeriodSec: 1, AnchorSec: 0, BurstSec: 0.25}
	if shift := InterleaveShift(job, []PhaseJob{other}, 16); shift != 0 {
		t.Fatalf("expected tie to break to zero shift, got %g", shift)
	}
}

func TestInterleaveShiftDifferentPeriods(t *testing.T) {
	// A neighbor with a different period is compared by phase fraction:
	// a job colliding in fraction space should still move.
	other := PhaseJob{PeriodSec: 2, AnchorSec: 0, BurstSec: 0.5, Weight: 1}
	job := PhaseJob{PeriodSec: 1, AnchorSec: 0, BurstSec: 0.25}
	shift := InterleaveShift(job, []PhaseJob{other}, 16)
	if shift <= 0 {
		t.Fatalf("expected a positive shift, got %g", shift)
	}
	if shift >= job.PeriodSec {
		t.Fatalf("shift %g exceeds the job's own period", shift)
	}
}
