package throttle

import (
	"math"
	"testing"
)

// flatDemand builds a constant demand series.
func flatDemand(dur int, d Demand) []Demand {
	out := make([]Demand, dur)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestNoThrottleUnderCap(t *testing.T) {
	caps := []Caps{{Tput: 100, IOPS: 100}}
	demand := [][]Demand{flatDemand(10, Demand{WriteBps: 50, WriteIOPS: 50})}
	res := new(Scratch).Simulate(caps, demand)
	if res.TotalThrottledSecs != 0 || len(res.Events) != 0 {
		t.Fatalf("under-cap run throttled: %+v", res)
	}
	if math.Abs(res.DeliveredBps[0]-50) > 1e-9 {
		t.Fatalf("delivered = %v, want 50", res.DeliveredBps[0])
	}
}

func TestThroughputThrottle(t *testing.T) {
	caps := []Caps{{Tput: 100, IOPS: 1e9}}
	demand := [][]Demand{flatDemand(5, Demand{WriteBps: 200, WriteIOPS: 1})}
	res := new(Scratch).Simulate(caps, demand)
	if res.ThrottledSecs[0] != 5 {
		t.Fatalf("throttled secs = %d, want 5", res.ThrottledSecs[0])
	}
	for _, ev := range res.Events {
		if ev.Dim != ByTput {
			t.Fatalf("dimension = %v, want throughput", ev.Dim)
		}
		if ev.WrRatio != 1 {
			t.Fatalf("wr_ratio = %v, want 1 (pure write)", ev.WrRatio)
		}
	}
	// Delivered clamps at the cap.
	if res.DeliveredBps[0] > 100+1e-9 {
		t.Fatalf("delivered %v above cap", res.DeliveredBps[0])
	}
}

func TestIOPSThrottle(t *testing.T) {
	caps := []Caps{{Tput: 1e12, IOPS: 10}}
	demand := [][]Demand{flatDemand(3, Demand{ReadBps: 1, ReadIOPS: 100})}
	res := new(Scratch).Simulate(caps, demand)
	if res.ThrottledSecs[0] != 3 {
		t.Fatalf("throttled secs = %d, want 3", res.ThrottledSecs[0])
	}
	if res.Events[0].Dim != ByIOPS {
		t.Fatalf("dimension = %v, want iops", res.Events[0].Dim)
	}
	if res.Events[0].WrRatio != -1 {
		t.Fatalf("wr_ratio = %v, want -1 (pure read)", res.Events[0].WrRatio)
	}
}

func TestBacklogExtendsThrottle(t *testing.T) {
	// One second of 3x-cap burst, then idle: the backlog takes two more
	// seconds to drain, so three seconds show queued IO.
	caps := []Caps{{Tput: 100, IOPS: 1e9}}
	demand := [][]Demand{make([]Demand, 6)}
	demand[0][0] = Demand{WriteBps: 300, WriteIOPS: 3}
	res := new(Scratch).Simulate(caps, demand)
	if res.ThrottledSecs[0] != 2 {
		// t=0: offer 300 > 100 (throttle, backlog 200 -> deliver 100)
		// t=1: offer 200 > 100 (throttle, backlog 100)
		// t=2: offer 100 == cap (no throttle), drains fully.
		t.Fatalf("throttled secs = %d, want 2", res.ThrottledSecs[0])
	}
}

func TestRARReflectsGroupHeadroom(t *testing.T) {
	// VD0 throttles while VD1 idles: the group has plenty of headroom, so
	// the event's RAR should be high (the Fig 3(b) symptom).
	caps := []Caps{{Tput: 100, IOPS: 1e9}, {Tput: 900, IOPS: 1e9}}
	demand := [][]Demand{
		flatDemand(2, Demand{WriteBps: 200, WriteIOPS: 1}),
		flatDemand(2, Demand{WriteBps: 0}),
	}
	res := new(Scratch).Simulate(caps, demand)
	if len(res.Events) == 0 {
		t.Fatal("expected throttle events")
	}
	// Group cap 1000, load 200 => RAR 0.8.
	if got := res.Events[0].RAR; math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("RAR = %v, want 0.8", got)
	}
}

func TestRARClampsToZero(t *testing.T) {
	caps := []Caps{{Tput: 100, IOPS: 1e9}}
	demand := [][]Demand{flatDemand(1, Demand{WriteBps: 500, WriteIOPS: 1})}
	res := new(Scratch).Simulate(caps, demand)
	if res.Events[0].RAR != 0 {
		t.Fatalf("overloaded RAR = %v, want 0", res.Events[0].RAR)
	}
}

func TestSimulatePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched demand should panic")
		}
	}()
	new(Scratch).Simulate([]Caps{{Tput: 1, IOPS: 1}}, nil)
}

func TestLendingShortensThrottle(t *testing.T) {
	// VD0 bursts to 2x cap for a while; VD1 idles with a huge cap. With
	// lending, VD0 borrows headroom and throttles less.
	caps := []Caps{{Tput: 100, IOPS: 1e9}, {Tput: 900, IOPS: 1e9}}
	dur := 120
	d0 := make([]Demand, dur)
	for i := 0; i < 30; i++ {
		d0[i] = Demand{WriteBps: 200, WriteIOPS: 1}
	}
	demand := [][]Demand{d0, flatDemand(dur, Demand{})}

	without := new(Scratch).Simulate(caps, demand)
	with := withLending(caps, demand, Lending{Rate: 0.8, PeriodSec: 60})
	if with.TotalThrottledSecs >= without.TotalThrottledSecs {
		t.Fatalf("lending did not help: %d >= %d", with.TotalThrottledSecs, without.TotalThrottledSecs)
	}
	gain := LendingGain(without, with)
	if !(gain > 0) {
		t.Fatalf("lending gain = %v, want positive", gain)
	}
}

func TestLendingCanBackfire(t *testing.T) {
	// The lender (VD1) bursts right after lending its cap away: it now
	// throttles where it would not have, which is the negative-gain case the
	// paper warns about (§5.3).
	caps := []Caps{{Tput: 100, IOPS: 1e9}, {Tput: 200, IOPS: 1e9}}
	dur := 60
	d0 := make([]Demand, dur)
	d1 := make([]Demand, dur)
	// VD0 throttles briefly at t=0, triggering a borrow for the period.
	d0[0] = Demand{WriteBps: 150, WriteIOPS: 1}
	// VD1 then runs exactly at its nominal cap for the rest of the period:
	// fine without lending, throttled after lending reduced its cap.
	for i := 1; i < dur; i++ {
		d1[i] = Demand{WriteBps: 200, WriteIOPS: 2}
	}
	demand := [][]Demand{d0, d1}

	without := new(Scratch).Simulate(caps, demand)
	with := withLending(caps, demand, Lending{Rate: 0.8, PeriodSec: 60})
	if gain := LendingGain(without, with); !(gain < 0) {
		t.Fatalf("expected negative lending gain, got %v (wo=%d w=%d)",
			gain, without.TotalThrottledSecs, with.TotalThrottledSecs)
	}
}

func TestLendingConservesGroupCap(t *testing.T) {
	caps := []Caps{{Tput: 100, IOPS: 100}, {Tput: 300, IOPS: 300}, {Tput: 600, IOPS: 600}}
	eff := append([]Caps(nil), caps...)
	demand := [][]Demand{
		flatDemand(1, Demand{WriteBps: 150, WriteIOPS: 150}),
		flatDemand(1, Demand{WriteBps: 50, WriteIOPS: 50}),
		flatDemand(1, Demand{WriteBps: 100, WriteIOPS: 100}),
	}
	l := Lending{Rate: 0.5, PeriodSec: 60}
	applyLending(&l, eff, caps, demand, 0, 0)
	var sumT, sumI float64
	for _, c := range eff {
		sumT += c.Tput
		sumI += c.IOPS
	}
	if math.Abs(sumT-1000) > 1e-9 || math.Abs(sumI-1000) > 1e-9 {
		t.Fatalf("lending changed group cap: %v/%v", sumT, sumI)
	}
	if eff[0].Tput <= caps[0].Tput {
		t.Fatal("borrower cap did not increase")
	}
	if eff[1].Tput >= caps[1].Tput || eff[2].Tput >= caps[2].Tput {
		t.Fatal("lender caps did not decrease")
	}
}

func TestLendingGainNaNWhenIdle(t *testing.T) {
	r := Result{}
	if !math.IsNaN(LendingGain(r, r)) {
		t.Fatal("gain of two idle runs should be NaN")
	}
}

func TestSimulateWithLendingPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 0 should panic")
		}
	}()
	withLending(nil, nil, Lending{Rate: 0})
}

func TestReductionRate(t *testing.T) {
	// Equation 3: VD(t)=100, AR=100, p=0.5 => 100/150.
	if got := ReductionRate(100, 100, 0.5); math.Abs(got-100.0/150.0) > 1e-12 {
		t.Fatalf("ReductionRate = %v", got)
	}
	if got := ReductionRate(100, 0, 0.8); got != 1 {
		t.Fatalf("no AR should give rate 1, got %v", got)
	}
	if got := ReductionRate(100, -50, 0.8); got != 1 {
		t.Fatalf("negative AR should clamp, got %v", got)
	}
	if !math.IsNaN(ReductionRate(0, 100, 0.5)) {
		t.Fatal("zero load should be NaN")
	}
}

func TestDimensionString(t *testing.T) {
	if ByTput.String() != "throughput" || ByIOPS.String() != "iops" {
		t.Fatal("Dimension strings wrong")
	}
}

func TestDemandSums(t *testing.T) {
	d := Demand{ReadBps: 1, WriteBps: 2, ReadIOPS: 3, WriteIOPS: 4}
	if d.Bps() != 3 || d.IOPS() != 7 {
		t.Fatalf("sums = %v/%v", d.Bps(), d.IOPS())
	}
}

func TestLendingAtMostOncePerPeriod(t *testing.T) {
	// VD0 throttles throughout; with a tiny lending rate it stays throttled,
	// but the lender must only be debited once per period. We detect this by
	// checking the lender never throttles despite running just under its
	// nominal cap: repeated debits would push it over.
	caps := []Caps{{Tput: 100, IOPS: 1e9}, {Tput: 1000, IOPS: 1e9}}
	dur := 30
	demand := [][]Demand{
		flatDemand(dur, Demand{WriteBps: 500, WriteIOPS: 1}),
		flatDemand(dur, Demand{WriteBps: 700, WriteIOPS: 1}),
	}
	with := withLending(caps, demand, Lending{Rate: 0.1, PeriodSec: 1000})
	if with.ThrottledSecs[1] != 0 {
		t.Fatalf("lender throttled %d secs; lending applied more than once per period?", with.ThrottledSecs[1])
	}
}
