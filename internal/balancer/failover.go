package balancer

import (
	"math"
	"math/rand"
	"sort"

	"ebslab/internal/cluster"
	"ebslab/internal/stats"
)

// FailoverPolicy selects where a failed BlockServer's segments land.
type FailoverPolicy uint8

// Failover policies.
const (
	// FailoverGreedy assigns each orphaned segment (hottest first) to the
	// currently least-loaded survivor — the load-aware choice.
	FailoverGreedy FailoverPolicy = iota
	// FailoverRandom scatters orphaned segments uniformly (what a placement
	// that only knows capacity, not traffic, would do).
	FailoverRandom
)

func (p FailoverPolicy) String() string {
	if p == FailoverGreedy {
		return "greedy-min-load"
	}
	return "random"
}

// FailoverResult reports a failure-recovery simulation.
type FailoverResult struct {
	Policy FailoverPolicy
	Failed cluster.StorageNodeID
	// Moved is how many segments were re-homed.
	Moved int
	// CoVBefore is the per-BS load CoV just before the failure (all BSs);
	// CoVAfter is the survivors' CoV after redistribution.
	CoVBefore, CoVAfter float64
	// MaxOverload is the survivors' hottest-BS load divided by the survivor
	// average after redistribution — the spike a bad policy creates.
	MaxOverload float64
}

// Failover removes one BlockServer at the given period and re-homes its
// segments across the survivors according to the policy, mutating the
// placement in place. Load is measured as read+write bytes of the period.
func Failover(placement *cluster.SegmentMap, segTraffic [][]RW, period int,
	failed cluster.StorageNodeID, policy FailoverPolicy, rng *rand.Rand) FailoverResult {
	nBS := placement.NumBS()
	res := FailoverResult{Policy: policy, Failed: failed}
	load := make([]float64, nBS)
	for seg, rows := range segTraffic {
		if period < len(rows) {
			load[placement.BSOf(cluster.SegmentID(seg))] += rows[period].Total()
		}
	}
	res.CoVBefore = stats.NormCoV(load)

	orphans := placement.SegmentsOn(failed)
	segLoad := func(seg cluster.SegmentID) float64 {
		if period < len(segTraffic[seg]) {
			return segTraffic[seg][period].Total()
		}
		return 0
	}
	sort.Slice(orphans, func(i, j int) bool { return segLoad(orphans[i]) > segLoad(orphans[j]) })

	survivors := make([]cluster.StorageNodeID, 0, nBS-1)
	for b := 0; b < nBS; b++ {
		id := cluster.StorageNodeID(b)
		if id != failed {
			survivors = append(survivors, id)
		}
	}
	if len(survivors) == 0 {
		res.CoVAfter = math.NaN()
		res.MaxOverload = math.NaN()
		return res
	}
	for _, seg := range orphans {
		var dst cluster.StorageNodeID
		switch policy {
		case FailoverGreedy:
			dst = survivors[0]
			for _, b := range survivors {
				if load[b] < load[dst] {
					dst = b
				}
			}
		case FailoverRandom:
			dst = survivors[rng.Intn(len(survivors))]
		}
		placement.Move(seg, dst)
		load[dst] += segLoad(seg)
		res.Moved++
	}
	load[failed] = 0

	surv := make([]float64, 0, len(survivors))
	for _, b := range survivors {
		surv = append(surv, load[b])
	}
	res.CoVAfter = stats.NormCoV(surv)
	if mean := stats.Mean(surv); mean > 0 {
		res.MaxOverload = stats.Max(surv) / mean
	} else {
		res.MaxOverload = math.NaN()
	}
	return res
}
