package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ebslab/internal/balancer"
	"ebslab/internal/stats"
)

// Fig5aResult is the per-cluster read-vs-write CoV comparison (Figure 5a).
type Fig5aResult struct {
	// ReadCoV[i], WriteCoV[i], NormWrite[i] describe storage cluster i:
	// mean per-period CoV of per-BS read and write traffic under the static
	// placement, and total write traffic normalized to the largest cluster.
	ReadCoV, WriteCoV, NormWrite []float64
	// FracAboveDiagonal is the fraction of clusters with read CoV >= write
	// CoV (96.8% in the paper).
	FracAboveDiagonal float64
}

// Fig5aReadWriteCoV measures per-cluster inter-BS skewness by direction.
func (s *Study) Fig5aReadWriteCoV() Fig5aResult {
	var res Fig5aResult
	var maxW float64
	var above, counted int
	for _, ct := range s.section6().clusters {
		futureW := balancer.BSFutureMatrix(ct.Placement, ct.Traffic, func(x balancer.RW) float64 { return x.W })
		futureR := balancer.BSFutureMatrix(ct.Placement, ct.Traffic, func(x balancer.RW) float64 { return x.R })
		var covW, covR []float64
		var totW float64
		for p := 0; p < ct.NPeriods; p++ {
			col := func(m [][]float64) []float64 {
				out := make([]float64, len(m))
				for b := range m {
					out[b] = m[b][p]
				}
				return out
			}
			covW = appendNotNaN(covW, stats.NormCoV(col(futureW)))
			covR = appendNotNaN(covR, stats.NormCoV(col(futureR)))
		}
		for b := range futureW {
			totW += stats.Sum(futureW[b])
		}
		r, w := stats.Mean(covR), stats.Mean(covW)
		if math.IsNaN(r) || math.IsNaN(w) {
			continue
		}
		counted++
		if r >= w {
			above++
		}
		res.ReadCoV = append(res.ReadCoV, r)
		res.WriteCoV = append(res.WriteCoV, w)
		res.NormWrite = append(res.NormWrite, totW)
		if totW > maxW {
			maxW = totW
		}
	}
	for i := range res.NormWrite {
		if maxW > 0 {
			res.NormWrite[i] /= maxW
		}
	}
	if counted > 0 {
		res.FracAboveDiagonal = float64(above) / float64(counted)
	} else {
		res.FracAboveDiagonal = math.NaN()
	}
	return res
}

// Render prints Fig 5(a).
func (r Fig5aResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 5(a): per-cluster inter-BS CoV, read vs write\n")
	fmt.Fprintf(&b, "  clusters with read CoV >= write CoV: %.1f%% (n=%d)\n",
		100*r.FracAboveDiagonal, len(r.ReadCoV))
	fmt.Fprintf(&b, "  median read CoV %.2f, median write CoV %.2f\n",
		stats.Median(r.ReadCoV), stats.Median(r.WriteCoV))
	return b.String()
}

// Fig5bResult is the segment read/write dominance histogram (Figure 5b).
type Fig5bResult struct {
	// MedianAbsWr[i] is cluster i's median |wr_ratio| over the segments
	// contributing the top 80% of its traffic.
	MedianAbsWr []float64
	// FracAbove09 is the fraction of clusters whose median exceeds 0.9
	// (85.2% in the paper).
	FracAbove09 float64
}

// Fig5bSegmentDominance measures how one-sided segments are, per cluster,
// restricted to the segments carrying the top 80% of cluster traffic.
func (s *Study) Fig5bSegmentDominance() Fig5bResult {
	var res Fig5bResult
	for _, ct := range s.section6().clusters {
		type segTot struct{ r, w, tot float64 }
		segs := make([]segTot, len(ct.Traffic))
		var clusterTot float64
		for i, rows := range ct.Traffic {
			for _, rw := range rows {
				segs[i].r += rw.R
				segs[i].w += rw.W
			}
			segs[i].tot = segs[i].r + segs[i].w
			clusterTot += segs[i].tot
		}
		if clusterTot == 0 {
			continue
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i].tot > segs[j].tot })
		var cum float64
		var absWr []float64
		for _, sg := range segs {
			if cum >= 0.8*clusterTot {
				break
			}
			cum += sg.tot
			wr := stats.WrRatio(sg.w, sg.r)
			if !math.IsNaN(wr) {
				absWr = append(absWr, math.Abs(wr))
			}
		}
		if m := stats.Median(absWr); !math.IsNaN(m) {
			res.MedianAbsWr = append(res.MedianAbsWr, m)
		}
	}
	res.FracAbove09 = stats.FractionWhere(res.MedianAbsWr, func(x float64) bool { return x > 0.9 })
	return res
}

// Render prints Fig 5(b).
func (r Fig5bResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 5(b): segment dominance (median |wr_ratio| of top-80%-traffic segments)\n")
	fmt.Fprintf(&b, "  clusters with median > 0.9: %.1f%% (n=%d)\n", 100*r.FracAbove09, len(r.MedianAbsWr))
	fmt.Fprintf(&b, "  overall median: %.2f\n", stats.Median(r.MedianAbsWr))
	return b.String()
}

// Fig5cResult compares Write-Only and Write-then-Read migration (Figure 5c).
type Fig5cResult struct {
	ClusterIdx int
	// Mean per-period CoVs under each algorithm.
	WriteOnlyReadCoV, WriteOnlyWriteCoV float64
	WTRReadCoV, WTRWriteCoV             float64
	WriteMigs, ReadMigs                 int
}

// Fig5cWriteThenRead runs both balancing modes with the Ideal importer on
// the busiest cluster, as §6.2.2 does.
func (s *Study) Fig5cWriteThenRead() Fig5cResult {
	v := s.section6()
	ct := v.clusters[v.worst]
	cfg := balancer.DefaultConfig()
	wo := s.runBalancer(ct, balancer.OraclePolicy{}, cfg)

	cfg.Mode = balancer.WriteThenRead
	wtr := s.runBalancer(ct, balancer.OraclePolicy{}, cfg)

	res := Fig5cResult{ClusterIdx: v.worst}
	res.WriteOnlyReadCoV = stats.Mean(stats.DropNaN(wo.ReadCoV))
	res.WriteOnlyWriteCoV = stats.Mean(stats.DropNaN(wo.WriteCoV))
	res.WTRReadCoV = stats.Mean(stats.DropNaN(wtr.ReadCoV))
	res.WTRWriteCoV = stats.Mean(stats.DropNaN(wtr.WriteCoV))
	res.WriteMigs, res.ReadMigs = balancer.MigrationCount(wtr.Migrations)
	return res
}

// Render prints Fig 5(c).
func (r Fig5cResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5(c): write-only vs write-then-read migration on cluster %d\n", r.ClusterIdx)
	fmt.Fprintf(&b, "  write-only:      read CoV %.2f, write CoV %.2f\n", r.WriteOnlyReadCoV, r.WriteOnlyWriteCoV)
	fmt.Fprintf(&b, "  write-then-read: read CoV %.2f, write CoV %.2f (%d write + %d read migrations)\n",
		r.WTRReadCoV, r.WTRWriteCoV, r.WriteMigs, r.ReadMigs)
	return b.String()
}
