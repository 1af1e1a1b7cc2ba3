package hypervisor

import (
	"math"

	"ebslab/internal/stats"
)

// The periodic QP-to-WT rebinding balancer the paper simulates in §4.3 (a
// FinNVMe/LPNS-style mechanism) swaps the hottest and coldest threads when
// the hottest carries more than rebindTrigger times the coldest's traffic.
// WT-CoV is evaluated over windows of covWindowSlots slots: per-WT traffic
// is summed per window and the reported CoV is the mean across windows.
// Rebinding can only reduce this CoV when hotspots persist longer than the
// rebinding period — the paper's central observation.
const (
	rebindTrigger  = 1.2
	covWindowSlots = 5
)

// RebindResult summarizes one node's rebinding simulation (one point of
// Fig 2(d)).
type RebindResult struct {
	// Ratio is the fraction of periods that triggered a rebinding.
	Ratio float64
	// Gain is WT-CoV with rebinding divided by WT-CoV without: below 1 the
	// balancer helped, near 1 it churned without helping. (The paper plots
	// the same quantity as a percentage.)
	Gain float64
	// CoVBefore and CoVAfter are the underlying normalized CoVs.
	CoVBefore, CoVAfter float64
	// Periods is how many periods were simulated.
	Periods int
}

// SimulateRebinding replays a node's per-QP slot traffic against the
// periodic rebinding balancer, which rebinds every periodSlots slots (the
// paper uses 10 ms periods over 10 ms slots, i.e. periodSlots = 1).
// slotTraffic is indexed [qp][slot] and aligned with binding.QPs; binding is
// not mutated.
//
// Per period the balancer measures per-WT traffic under the current binding
// and, when the hottest WT exceeds rebindTrigger x the coldest, swaps the QP
// sets of those two threads — exactly the paper's §4.3 setup. The "before" CoV
// is measured on total per-WT traffic under the static binding; "after"
// under the evolving one.
func SimulateRebinding(binding *Binding, slotTraffic [][]float64, periodSlots int) RebindResult {
	if periodSlots < 1 {
		panic("hypervisor: rebinding period must be at least one slot")
	}
	nQPs := len(binding.QPs)
	if len(slotTraffic) != nQPs {
		panic("hypervisor: slotTraffic rows must match binding QPs")
	}
	var nSlots int
	if nQPs > 0 {
		nSlots = len(slotTraffic[0])
	}
	static := binding
	dynamic := binding.Clone()

	staticWin := make([]float64, binding.WTs)
	dynamicWin := make([]float64, binding.WTs)
	periodWT := make([]float64, binding.WTs)

	var res RebindResult
	var covBeforeSum, covAfterSum float64
	var covWindows int
	flushWindow := func() {
		cb := stats.NormCoV(staticWin)
		ca := stats.NormCoV(dynamicWin)
		if !math.IsNaN(cb) && !math.IsNaN(ca) {
			covBeforeSum += cb
			covAfterSum += ca
			covWindows++
		}
		for i := range staticWin {
			staticWin[i], dynamicWin[i] = 0, 0
		}
	}
	for start := 0; start < nSlots; start += periodSlots {
		end := start + periodSlots
		if end > nSlots {
			end = nSlots
		}
		for i := range periodWT {
			periodWT[i] = 0
		}
		for q := 0; q < nQPs; q++ {
			var sum float64
			for s := start; s < end; s++ {
				sum += slotTraffic[q][s]
			}
			staticWin[static.WTOf[q]] += sum
			dynamicWin[dynamic.WTOf[q]] += sum
			periodWT[dynamic.WTOf[q]] += sum
		}
		res.Periods++
		// Balance for the next period based on what this period showed.
		hot, cold := argmaxF(periodWT), argminF(periodWT)
		if periodWT[cold]*rebindTrigger < periodWT[hot] {
			dynamic.SwapWTs(int8(hot), int8(cold))
			res.Ratio++
		}
		if end%covWindowSlots == 0 || end == nSlots {
			flushWindow()
		}
	}
	if res.Periods > 0 {
		res.Ratio /= float64(res.Periods)
	}
	if covWindows == 0 {
		res.CoVBefore, res.CoVAfter, res.Gain = math.NaN(), math.NaN(), math.NaN()
		return res
	}
	res.CoVBefore = covBeforeSum / float64(covWindows)
	res.CoVAfter = covAfterSum / float64(covWindows)
	if res.CoVBefore == 0 {
		res.Gain = math.NaN()
	} else {
		res.Gain = res.CoVAfter / res.CoVBefore
	}
	return res
}

func argmaxF(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func argminF(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
