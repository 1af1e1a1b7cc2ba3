package balancer

import (
	"math"
	"math/rand"

	"ebslab/internal/cluster"
	"ebslab/internal/predict"
	"ebslab/internal/stats"
)

// ImporterPolicy selects which BlockServer receives migrated segments.
// bsHist[b] is the per-period traffic history of BS b up to and including
// the current period (bsHist[b][period] is this period's load under the
// current placement).
type ImporterPolicy interface {
	Name() string
	Select(bsHist [][]float64, period int, exclude cluster.StorageNodeID) cluster.StorageNodeID
}

// RandomPolicy (S1) picks a uniformly random importer.
type RandomPolicy struct {
	Rng *rand.Rand
}

// Name implements ImporterPolicy.
func (p *RandomPolicy) Name() string { return "random" }

// Select implements ImporterPolicy.
func (p *RandomPolicy) Select(bsHist [][]float64, _ int, exclude cluster.StorageNodeID) cluster.StorageNodeID {
	n := len(bsHist)
	if n < 2 {
		return -1
	}
	for {
		b := cluster.StorageNodeID(p.Rng.Intn(n))
		if b != exclude {
			return b
		}
	}
}

// MinTrafficPolicy (S2) is the production heuristic: pick the BS with the
// lowest traffic in the current period.
type MinTrafficPolicy struct{}

// Name implements ImporterPolicy.
func (MinTrafficPolicy) Name() string { return "min-traffic" }

// Select implements ImporterPolicy.
func (MinTrafficPolicy) Select(bsHist [][]float64, period int, exclude cluster.StorageNodeID) cluster.StorageNodeID {
	best, bestV := cluster.StorageNodeID(-1), math.Inf(1)
	for b := range bsHist {
		if cluster.StorageNodeID(b) == exclude {
			continue
		}
		if v := bsHist[b][period]; v < bestV {
			best, bestV = cluster.StorageNodeID(b), v
		}
	}
	return best
}

// MinVariancePolicy (S3) picks the BS whose traffic history has the lowest
// variance — a stability-seeking heuristic.
type MinVariancePolicy struct{}

// Name implements ImporterPolicy.
func (MinVariancePolicy) Name() string { return "min-variance" }

// Select implements ImporterPolicy.
func (MinVariancePolicy) Select(bsHist [][]float64, period int, exclude cluster.StorageNodeID) cluster.StorageNodeID {
	best, bestV := cluster.StorageNodeID(-1), math.Inf(1)
	for b := range bsHist {
		if cluster.StorageNodeID(b) == exclude {
			continue
		}
		v := stats.Variance(bsHist[b][:period+1])
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		if v < bestV {
			best, bestV = cluster.StorageNodeID(b), v
		}
	}
	return best
}

// LunulePolicy (S4) predicts next-period traffic with a linear fit over the
// last Window periods (Lunule's approach) and picks the lowest forecast.
type LunulePolicy struct {
	// Window is the linear-fit window (4, per Appendix C).
	Window int
}

// Name implements ImporterPolicy.
func (p LunulePolicy) Name() string { return "lunule-linear" }

// Select implements ImporterPolicy.
func (p LunulePolicy) Select(bsHist [][]float64, period int, exclude cluster.StorageNodeID) cluster.StorageNodeID {
	w := p.Window
	if w < 2 {
		w = 4
	}
	lf := predict.NewLinearFit(w)
	best, bestV := cluster.StorageNodeID(-1), math.Inf(1)
	for b := range bsHist {
		if cluster.StorageNodeID(b) == exclude {
			continue
		}
		lf.Fit(bsHist[b][:period+1])
		v := lf.Predict()
		if v < bestV {
			best, bestV = cluster.StorageNodeID(b), v
		}
	}
	return best
}

// PlacementAware is an optional ImporterPolicy extension: policies that
// implement it are given the live segment placement, so they can reason
// about loads that migrations have already changed.
type PlacementAware interface {
	SelectPlaced(placement *cluster.SegmentMap, segTraffic [][]RW, period int,
		readPass bool, exclude cluster.StorageNodeID) cluster.StorageNodeID
}

// OraclePolicy is the paper's S5 "Ideal": it knows the true next-period
// traffic of every segment and evaluates it under the *live* placement, so
// it always picks the BS that will genuinely be coldest next period.
type OraclePolicy struct{}

// Name implements ImporterPolicy.
func (OraclePolicy) Name() string { return "ideal" }

// Select implements ImporterPolicy as a fallback when no placement is
// available (equivalent to min-traffic on the current period).
func (OraclePolicy) Select(bsHist [][]float64, period int, exclude cluster.StorageNodeID) cluster.StorageNodeID {
	return MinTrafficPolicy{}.Select(bsHist, period, exclude)
}

// SelectPlaced implements PlacementAware.
func (OraclePolicy) SelectPlaced(placement *cluster.SegmentMap, segTraffic [][]RW, period int,
	readPass bool, exclude cluster.StorageNodeID) cluster.StorageNodeID {
	var nPeriods int
	if len(segTraffic) > 0 {
		nPeriods = len(segTraffic[0])
	}
	next := period + 1
	if next >= nPeriods {
		next = nPeriods - 1
	}
	if next < 0 {
		return -1
	}
	loads := make([]float64, placement.NumBS())
	for seg := range segTraffic {
		rw := segTraffic[seg][next]
		v := rw.W
		if readPass {
			v = rw.R
		}
		loads[placement.BSOf(cluster.SegmentID(seg))] += v
	}
	best, bestV := cluster.StorageNodeID(-1), math.Inf(1)
	for b, v := range loads {
		if cluster.StorageNodeID(b) == exclude {
			continue
		}
		if v < bestV {
			best, bestV = cluster.StorageNodeID(b), v
		}
	}
	return best
}
