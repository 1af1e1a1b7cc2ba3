// Package balancer implements the inter-BlockServer load balancer of §6 and
// Appendix A: a periodic heuristic that detects exporters (BlockServers
// whose traffic exceeds 1.2x the cluster average), peels off their hottest
// segments until roughly 0.2x the average traffic has moved, and ships them
// to an importer chosen by a pluggable policy. The five importer-selection
// policies of Figure 4(b) are provided, together with the migration metrics
// the paper uses (frequent-migration proportion, normalized migration
// intervals) and the Write-Only / Write-then-Read variants of Figure 5(c).
package balancer

import (
	"fmt"
	"math"
	"sort"

	"ebslab/internal/cluster"
	"ebslab/internal/stats"
)

// RW is one period's read/write byte totals for a segment.
type RW struct {
	R float64
	W float64
}

// Total returns R+W.
func (x RW) Total() float64 { return x.R + x.W }

// Algorithm 1's thresholds (Appendix A). The online controller
// (internal/control) plans its migrations against the same three, so a
// controlled run stays comparable to the §6 experiments.
const (
	// ExporterThreshold is the multiple of the cluster average at which a
	// BlockServer becomes an exporter.
	ExporterThreshold = 1.2
	// MigrateFraction is the share of average traffic each exporter sheds
	// per period.
	MigrateFraction = 0.2
	// ImprovementMargin gates segment movability: a segment is movable only
	// if landing it on the currently coldest BS leaves that BS below
	// ImprovementMargin x the exporter's load — otherwise the move merely
	// relocates the hotspot and ping-pongs forever. Algorithm 1 leaves this
	// implicit; production balancers bound the bundle.
	ImprovementMargin = 0.9
)

// Config selects what Algorithm 1 balances. The WriteThenRead read pass
// reuses the write pass's importer policy, fed with read history.
type Config struct {
	// Mode selects which traffic the balancer acts on.
	Mode Mode
}

// Mode selects the migration algorithm of Figure 5(c).
type Mode uint8

// Balancing modes.
const (
	// WriteOnly migrates based solely on write traffic (production default,
	// §2.2).
	WriteOnly Mode = iota
	// WriteThenRead first balances write traffic, then runs a second pass
	// balancing read traffic.
	WriteThenRead
)

func (m Mode) String() string {
	if m == WriteOnly {
		return "write-only"
	}
	return "write-then-read"
}

// DefaultConfig is the production balancer of §2.2: write-only.
func DefaultConfig() Config {
	return Config{Mode: WriteOnly}
}

// Migration records one segment move.
type Migration struct {
	Period int
	Seg    cluster.SegmentID
	From   cluster.StorageNodeID
	To     cluster.StorageNodeID
	// Read reports whether the move came from the read-balancing pass.
	Read bool
}

// Result summarizes one balancer run.
type Result struct {
	Migrations []Migration
	// WriteCoV[p] and ReadCoV[p] are the normalized CoVs of per-BS write and
	// read traffic in period p, measured under the placement in effect
	// during that period (i.e. after the previous period's migrations).
	WriteCoV []float64
	ReadCoV  []float64
}

// Run simulates the balancer over the per-segment period traffic matrix
// (indexed [segment][period]): each period is measured under the placement
// in effect, then rebalanced by Algorithm 1 (and the read pass under
// WriteThenRead). The starting placement is cloned; the caller's map is not
// mutated.
func Run(seg2bs *cluster.SegmentMap, segTraffic [][]RW, policy ImporterPolicy, cfg Config) Result {
	if len(segTraffic) != seg2bs.Len() {
		panic(fmt.Sprintf("balancer: %d traffic rows for %d segments", len(segTraffic), seg2bs.Len()))
	}
	placement := seg2bs.Clone()
	nBS := placement.NumBS()
	var nPeriods int
	if len(segTraffic) > 0 {
		nPeriods = len(segTraffic[0])
	}
	var res Result

	// bsHistW/bsHistR: per-BS traffic per period under the placement in
	// effect at each period — the history importer policies consult.
	bsHistW := make([][]float64, nBS)
	bsHistR := make([][]float64, nBS)
	for b := 0; b < nBS; b++ {
		bsHistW[b] = make([]float64, 0, nPeriods)
		bsHistR[b] = make([]float64, 0, nPeriods)
	}
	for p := 0; p < nPeriods; p++ {
		// Measure this period under the current placement.
		bsW := make([]float64, nBS)
		bsR := make([]float64, nBS)
		for seg, rows := range segTraffic {
			b := placement.BSOf(cluster.SegmentID(seg))
			bsW[b] += rows[p].W
			bsR[b] += rows[p].R
		}
		res.WriteCoV = append(res.WriteCoV, stats.NormCoV(bsW))
		res.ReadCoV = append(res.ReadCoV, stats.NormCoV(bsR))
		for b := 0; b < nBS; b++ {
			bsHistW[b] = append(bsHistW[b], bsW[b])
			bsHistR[b] = append(bsHistR[b], bsR[b])
		}

		// Write-balancing pass (Algorithm 1), then the read pass of Fig 5(c).
		res.Migrations = append(res.Migrations,
			balancePass(placement, segTraffic, p, bsW, bsHistW, policy, false)...)
		if cfg.Mode == WriteThenRead {
			res.Migrations = append(res.Migrations,
				balancePass(placement, segTraffic, p, bsR, bsHistR, policy, true)...)
		}
	}
	return res
}

// balancePass runs one Algorithm 1 sweep over the metric in bsLoad (write
// bytes, or read bytes for the read pass), mutating placement.
func balancePass(placement *cluster.SegmentMap, segTraffic [][]RW, period int,
	bsLoad []float64, bsHist [][]float64, policy ImporterPolicy, readPass bool) []Migration {

	nBS := len(bsLoad)
	avg := stats.Mean(bsLoad)
	if !(avg > 0) {
		return nil
	}
	metric := func(seg int) float64 {
		if readPass {
			return segTraffic[seg][period].R
		}
		return segTraffic[seg][period].W
	}

	var out []Migration
	for b := 0; b < nBS; b++ {
		if bsLoad[b] < ExporterThreshold*avg {
			continue
		}
		// sorted_segs <- sort({ws(k)}, descending)
		segs := placement.SegmentsOn(cluster.StorageNodeID(b))
		sort.Slice(segs, func(i, j int) bool { return metric(int(segs[i])) > metric(int(segs[j])) })

		// Movability: a segment may move only if placing it on the coldest
		// BS genuinely reduces the imbalance; otherwise it is pinned (the
		// hotspot would just relocate). A BS hot only because of pinned
		// segments is skipped — migration cannot fix it, only churn.
		minLoad := math.Inf(1)
		for ob := 0; ob < nBS; ob++ {
			if ob != b && bsLoad[ob] < minLoad {
				minLoad = bsLoad[ob]
			}
		}
		movable := func(v float64) bool { return minLoad+v <= ImprovementMargin*bsLoad[b] }
		var pinned float64
		for _, seg := range segs {
			if v := metric(int(seg)); !movable(v) {
				pinned += v
			}
		}
		if bsLoad[b]-pinned < ExporterThreshold*avg {
			continue
		}

		// mig_segs <- top-x movable segments whose summed traffic exceeds
		// 0.2*avg.
		var moving []cluster.SegmentID
		var sum float64
		for _, seg := range segs {
			if sum >= MigrateFraction*avg {
				break
			}
			v := metric(int(seg))
			if v <= 0 {
				break
			}
			if !movable(v) {
				continue // pinned: would just relocate the hotspot
			}
			moving = append(moving, seg)
			sum += v
		}
		if len(moving) == 0 {
			continue
		}
		var importer cluster.StorageNodeID
		if pa, ok := policy.(PlacementAware); ok {
			importer = pa.SelectPlaced(placement, segTraffic, period, readPass, cluster.StorageNodeID(b))
		} else {
			importer = policy.Select(bsHist, period, cluster.StorageNodeID(b))
		}
		if importer < 0 || int(importer) >= nBS || importer == cluster.StorageNodeID(b) {
			continue
		}
		for _, seg := range moving {
			placement.Move(seg, importer)
			out = append(out, Migration{
				Period: period, Seg: seg,
				From: cluster.StorageNodeID(b), To: importer, Read: readPass,
			})
		}
		// Keep the in-period accounting coherent so later exporters see the
		// importer's new load (Algorithm 1 line 8).
		bsLoad[importer] += sum
		bsLoad[b] -= sum
	}
	return out
}
