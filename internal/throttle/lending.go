package throttle

import (
	"math"
)

// Lending configures the Appendix B "limited lending" mitigation: pooled
// harvesting of a tenant's unused caps with a bounded lending rate.
type Lending struct {
	// Rate is p in (0,1): the fraction of the group's available resource the
	// throttled VD may borrow.
	Rate float64
	// PeriodSec is the lending period; effective caps reset at each period
	// boundary ("Init {Cap_i}" in Algorithm 2). Each VD borrows at most once
	// per period.
	PeriodSec int
}

// applyLending performs one lending action for vd at second t: it raises
// vd's effective caps by p x AR(t) in each dimension and debits the other
// (unthrottled) VDs proportionally to their headroom, so the group's summed
// effective cap is conserved.
func applyLending(l *Lending, eff, nominal []Caps, demand [][]Demand, t, vd int) {
	var sumCapT, sumCapI, loadT, loadI float64
	for i, c := range nominal {
		sumCapT += c.Tput
		sumCapI += c.IOPS
		loadT += demand[i][t].Bps()
		loadI += demand[i][t].IOPS()
	}
	lendDim := func(sumCap, load float64, capOf func(i int) *float64, demOf func(i int) float64) {
		ar := sumCap - load
		if ar <= 0 {
			return
		}
		extra := l.Rate * ar
		// Headroom of potential lenders under their current effective caps.
		var headroom float64
		for i := range eff {
			if i == vd {
				continue
			}
			h := *capOf(i) - demOf(i)
			if h > 0 {
				headroom += h
			}
		}
		if headroom <= 0 {
			return
		}
		if extra > headroom {
			extra = headroom
		}
		for i := range eff {
			if i == vd {
				continue
			}
			h := *capOf(i) - demOf(i)
			if h > 0 {
				// Its share is at most h, so the lender keeps its demand;
				// the max keeps round-off in extra*h/headroom from taking
				// more (an idle lender's cap would dip below zero).
				*capOf(i) = max(*capOf(i)-extra*h/headroom, demOf(i))
			}
		}
		*capOf(vd) += extra
	}
	lendDim(sumCapT, loadT,
		func(i int) *float64 { return &eff[i].Tput },
		func(i int) float64 { return demand[i][t].Bps() })
	lendDim(sumCapI, loadI,
		func(i int) *float64 { return &eff[i].IOPS },
		func(i int) float64 { return demand[i][t].IOPS() })
}

// LendingGain compares throttle durations without and with lending:
// (t_wo - t_w) / (t_wo + t_w), in (-1, 1); positive means lending shortened
// throttling. It returns NaN when neither run throttled.
func LendingGain(without, with Result) float64 {
	a := float64(without.TotalThrottledSecs)
	b := float64(with.TotalThrottledSecs)
	if a+b == 0 {
		return math.NaN()
	}
	return (a - b) / (a + b)
}

// ReductionRate computes Equation 3 at a throttle instant: the theoretical
// shortening of the throttle once the VD's offered load vdLoad is served at
// vdLoad + p x AR instead of vdLoad. Lower is better; the result is in
// (0, 1]. It returns NaN for non-positive load.
func ReductionRate(vdLoad, ar, p float64) float64 {
	if vdLoad <= 0 {
		return math.NaN()
	}
	extra := p * ar
	if extra < 0 {
		extra = 0
	}
	return vdLoad / (vdLoad + extra)
}
