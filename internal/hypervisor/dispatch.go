package hypervisor

import (
	"ebslab/internal/stats"
)

// DispatchPolicy selects how per-slot traffic reaches worker threads in the
// multi-WT hosting model of §4.4, where a hot QP's traffic may be shared by
// several threads instead of pinning to one.
type DispatchPolicy uint8

// Dispatch policies.
const (
	// DispatchSingleWT is the production model: each QP's slot goes wholly
	// to its bound worker thread.
	DispatchSingleWT DispatchPolicy = iota
	// DispatchLeastLoaded sends each QP-slot to the currently least-loaded
	// worker thread (per-IO dispatch, the hardware-offload proposal).
	DispatchLeastLoaded
	// DispatchRoundRobinIO sprays each QP's slots across worker threads in
	// turn, ignoring load.
	DispatchRoundRobinIO
)

func (p DispatchPolicy) String() string {
	switch p {
	case DispatchSingleWT:
		return "single-wt"
	case DispatchLeastLoaded:
		return "least-loaded"
	case DispatchRoundRobinIO:
		return "round-robin-io"
	}
	return "unknown"
}

// DispatchResult summarizes a dispatch-model simulation.
type DispatchResult struct {
	// CoV is the normalized CoV of total per-WT traffic.
	CoV float64
	// SyncOps counts cross-thread handoffs — slots that landed on a WT other
	// than the QP's home thread. Under single-WT hosting it is zero; it is
	// the currency multi-WT hosting pays in locking/cache-miss overhead.
	SyncOps int
}

// SimulateDispatch replays per-QP slot traffic under a dispatch policy.
// slotTraffic is indexed [qp][slot], aligned with binding.QPs. The binding
// supplies each QP's home thread (used by SingleWT and to count handoffs).
func SimulateDispatch(binding *Binding, slotTraffic [][]float64, policy DispatchPolicy) DispatchResult {
	nQPs := len(binding.QPs)
	if len(slotTraffic) != nQPs {
		panic("hypervisor: slotTraffic rows must match binding QPs")
	}
	var nSlots int
	if nQPs > 0 {
		nSlots = len(slotTraffic[0])
	}
	wt := make([]float64, binding.WTs)
	var res DispatchResult
	rr := 0
	for s := 0; s < nSlots; s++ {
		for q := 0; q < nQPs; q++ {
			v := slotTraffic[q][s]
			if v == 0 {
				continue
			}
			home := int(binding.WTOf[q])
			var target int
			switch policy {
			case DispatchSingleWT:
				target = home
			case DispatchLeastLoaded:
				target = argminF(wt)
			case DispatchRoundRobinIO:
				target = rr % binding.WTs
				rr++
			}
			if target != home {
				res.SyncOps++
			}
			wt[target] += v
		}
	}
	res.CoV = stats.NormCoV(wt)
	return res
}
