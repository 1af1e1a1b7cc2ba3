package core

import (
	"fmt"
	"math"
	"strings"

	"ebslab/internal/balancer"
	"ebslab/internal/cluster"
	"ebslab/internal/invariant"
	"ebslab/internal/predict"
	"ebslab/internal/stats"
	"ebslab/internal/xrand"
)

// clusterTraffic is the per-storage-cluster view the §6 experiments consume:
// segments renumbered locally, BlockServers renumbered 0..n-1, and the
// period traffic matrix restricted to the cluster.
type clusterTraffic struct {
	Placement *cluster.SegmentMap // local BS numbering
	Traffic   [][]balancer.RW     // [localSeg][period]
	SegIDs    []cluster.SegmentID // local -> global segment ids
	NPeriods  int
}

// balancePeriodSec is the §6 balancing period: every storage-cluster
// experiment sees traffic in periods of this many seconds.
const balancePeriodSec = 5

// clusterTraffics builds the per-cluster matrices by streaming every VD
// series once.
func (s *Study) clusterTraffics() []clusterTraffic {
	top := s.Fleet.Topology
	nPeriods := (s.Dur + balancePeriodSec - 1) / balancePeriodSec
	clusters := s.Fleet.StorageClusters

	// Global BS -> (cluster idx, local idx).
	type loc struct{ c, b int }
	bsLoc := map[cluster.StorageNodeID]loc{}
	for ci := range clusters {
		for bi, bs := range clusters[ci].BSs {
			bsLoc[bs] = loc{ci, bi}
		}
	}
	out := make([]clusterTraffic, len(clusters))
	// First pass: count segments per cluster and assign local ids.
	localOf := make([]int, len(top.Segments))
	for seg := range top.Segments {
		bs := s.Fleet.Seg2BS.BSOf(cluster.SegmentID(seg))
		l := bsLoc[bs]
		localOf[seg] = len(out[l.c].SegIDs)
		out[l.c].SegIDs = append(out[l.c].SegIDs, cluster.SegmentID(seg))
	}
	for ci := range out {
		out[ci].NPeriods = nPeriods
		out[ci].Placement = cluster.NewSegmentMap(len(out[ci].SegIDs), len(clusters[ci].BSs))
		out[ci].Traffic = make([][]balancer.RW, len(out[ci].SegIDs))
		for i := range out[ci].Traffic {
			out[ci].Traffic[i] = make([]balancer.RW, nPeriods)
		}
	}
	for seg := range top.Segments {
		bs := s.Fleet.Seg2BS.BSOf(cluster.SegmentID(seg))
		l := bsLoc[bs]
		out[l.c].Placement.Assign(cluster.SegmentID(localOf[seg]), cluster.StorageNodeID(l.b))
	}
	// Stream traffic.
	for vdIdx := range top.VDs {
		vd := &top.VDs[vdIdx]
		m := &s.Fleet.Models[vdIdx]
		series := s.Fleet.VDSeries(cluster.VDID(vdIdx), s.Dur)
		for segPos, seg := range vd.Segments {
			bs := s.Fleet.Seg2BS.BSOf(seg)
			l := bsLoc[bs]
			row := out[l.c].Traffic[localOf[seg]]
			rw, ww := m.SegWeightsRead[segPos], m.SegWeightsWrite[segPos]
			for t, smp := range series {
				p := t / balancePeriodSec
				row[p].R += smp.ReadBps * rw
				row[p].W += smp.WriteBps * ww
			}
		}
	}
	return out
}

// Fig4aResult is the frequent-migration study of Figure 4(a).
type Fig4aResult struct {
	WindowPeriods []int
	// Proportions[w][c] is the frequent-migration proportion of cluster c at
	// window scale WindowPeriods[w] (NaN-free clusters only).
	Proportions [][]float64
	// ZeroFrac[w] is the fraction of clusters with no frequent migrations.
	ZeroFrac []float64
	// MaxProp[w] is the worst cluster's proportion.
	MaxProp []float64
}

// Fig4aFrequentMigration runs the production balancer (MinTraffic importer)
// on every storage cluster and measures frequent-migration proportions at
// window scales of 1, 2 and 4 periods.
func (s *Study) Fig4aFrequentMigration() Fig4aResult {
	windows := []int{1, 2, 4}
	cts := s.clusterTraffics()
	res := Fig4aResult{WindowPeriods: windows}
	migs := s.productionMigrations(cts)
	for _, w := range windows {
		var props []float64
		var zero int
		maxProp := 0.0
		var counted int
		for i, ct := range cts {
			p := balancer.FrequentMigrationProportion(migs[i], ct.Placement.NumBS(), w)
			if math.IsNaN(p) {
				continue
			}
			counted++
			props = append(props, p)
			if p == 0 {
				zero++
			}
			if p > maxProp {
				maxProp = p
			}
		}
		res.Proportions = append(res.Proportions, props)
		if counted > 0 {
			res.ZeroFrac = append(res.ZeroFrac, float64(zero)/float64(counted))
		} else {
			res.ZeroFrac = append(res.ZeroFrac, math.NaN())
		}
		res.MaxProp = append(res.MaxProp, maxProp)
	}
	return res
}

// Render prints Fig 4(a).
func (r Fig4aResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 4(a): frequent-migration proportion across storage clusters\n")
	for i, w := range r.WindowPeriods {
		med := stats.Median(r.Proportions[i])
		fmt.Fprintf(&b, "  window %d periods: %.1f%% of clusters have none; median %.1f%%, max %.1f%%\n",
			w, 100*r.ZeroFrac[i], 100*med, 100*r.MaxProp[i])
	}
	return b.String()
}

// Fig4bResult compares importer-selection policies (Figure 4(b)).
type Fig4bResult struct {
	Policies []string
	// MedianInterval[i] is the median normalized out-migration interval of
	// policy i on the busiest cluster (larger = placements last longer).
	MedianInterval []float64
	Migrations     []int
	ClusterIdx     int
}

// Fig4bImporterSelection runs the five importer policies of §6.1.2 on the
// storage cluster with the most frequent migrations under the production
// policy.
func (s *Study) Fig4bImporterSelection() Fig4bResult {
	cts := s.clusterTraffics()
	victim := s.worstCluster(cts)
	ct := cts[victim]
	policies := []balancer.ImporterPolicy{
		&balancer.RandomPolicy{Rng: xrand.Get(s.Fleet.Cfg.Seed).Rand},
		balancer.MinTrafficPolicy{},
		balancer.MinVariancePolicy{},
		balancer.LunulePolicy{Window: 4},
		balancer.OraclePolicy{},
	}
	res := Fig4bResult{ClusterIdx: victim}
	for _, p := range policies {
		r := s.runBalancer(ct, p, balancer.DefaultConfig())
		ivs := balancer.OutMigrationIntervals(r.Migrations, ct.NPeriods)
		res.Policies = append(res.Policies, p.Name())
		res.MedianInterval = append(res.MedianInterval, stats.Median(ivs))
		res.Migrations = append(res.Migrations, len(r.Migrations))
	}
	return res
}

// runBalancer runs Algorithm 1 on one cluster and replays the run's
// migration log against the same placement and traffic (law
// conserve/balancer).
func (s *Study) runBalancer(ct clusterTraffic, p balancer.ImporterPolicy, cfg balancer.Config) balancer.Result {
	r := balancer.Run(ct.Placement, ct.Traffic, p, cfg)
	var rep invariant.Report
	invariant.CheckBalancer(&rep, ct.Placement, ct.Traffic, &r)
	s.fold(&rep)
	return r
}

// productionMigrations runs the production balancer (MinTraffic importer)
// on every cluster and returns each cluster's migrations.
func (s *Study) productionMigrations(cts []clusterTraffic) [][]balancer.Migration {
	migs := make([][]balancer.Migration, len(cts))
	for i, ct := range cts {
		migs[i] = s.runBalancer(ct, balancer.MinTrafficPolicy{}, balancer.DefaultConfig()).Migrations
	}
	return migs
}

// worstCluster picks the cluster with the highest frequent-migration
// proportion (ties broken by migration count) under the production policy.
func (s *Study) worstCluster(cts []clusterTraffic) int {
	best, bestScore := 0, math.Inf(-1)
	for i, migs := range s.productionMigrations(cts) {
		score := balancer.FrequentMigrationProportion(migs, cts[i].Placement.NumBS(), 1)
		if math.IsNaN(score) {
			score = -1
		}
		score += float64(len(migs)) * 1e-6
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Render prints Fig 4(b).
func (r Fig4bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4(b): importer selection on cluster %d (normalized out-migration interval)\n", r.ClusterIdx)
	for i, p := range r.Policies {
		fmt.Fprintf(&b, "  %-14s median interval %.3f (%d migrations)\n", p, r.MedianInterval[i], r.Migrations[i])
	}
	return b.String()
}

// Fig4cResult is the predictor comparison of Figure 4(c).
type Fig4cResult struct {
	Methods []string
	// MeanNormMSE[i] is the mean normalized MSE across BlockServers (MSE /
	// truth variance; < 1 beats predicting the mean).
	MeanNormMSE []float64
	BSSeries    int
	EpochLen    int
}

// Fig4cPredictionMSE evaluates the five predictor configurations of
// Appendix C on per-BS write traffic: P1 linear (per-period), P2 ARIMA
// (per-period), P3 GBT (per-epoch), P4 attention (per-epoch), P5 attention
// (per-period). The 30-period epoch scales the paper's 200-period epoch to
// our shorter window.
func (s *Study) Fig4cPredictionMSE() Fig4cResult {
	const epochLen = 30
	series := s.bsWriteSeries()
	res := Fig4cResult{BSSeries: len(series), EpochLen: epochLen}
	res.Methods, res.MeanNormMSE = medianNormMSE(series, []predictorRun{
		{"P1 linear (per-period)", func() predict.Predictor { return predict.NewLinearFit(4) }, 1},
		{"P2 arima (per-period)", func() predict.Predictor { return predict.NewARIMA(4, 1) }, 1},
		{"P3 gbt (per-epoch)", func() predict.Predictor { return predict.NewGBT(4, 40, 3, 0.1) }, epochLen},
		{"P4 attention (per-epoch)", func() predict.Predictor { return predict.NewAttention(4, 256) }, epochLen},
		{"P5 attention (per-period)", func() predict.Predictor { return predict.NewAttention(4, 256) }, 1},
	})
	return res
}

// bsWriteSeries returns the per-period write traffic of every BlockServer
// that saw any, cluster by cluster, under each cluster's initial placement.
func (s *Study) bsWriteSeries() [][]float64 {
	var series [][]float64
	for _, ct := range s.clusterTraffics() {
		for _, row := range balancer.BSFutureMatrix(ct.Placement, ct.Traffic, func(x balancer.RW) float64 { return x.W }) {
			if stats.Sum(row) > 0 {
				series = append(series, row)
			}
		}
	}
	return series
}

// predictorRun is one forecaster configuration of a per-BS prediction
// comparison: a fresh model per series, refit every refit periods.
type predictorRun struct {
	name  string
	mk    func() predict.Predictor
	refit int
}

// medianNormMSE evaluates every method on each series long enough to score
// after an 8-period warm-up, returning the method names and, per method, the
// median normalized MSE across series — the median because a single
// pathological series (near-zero variance, one spike) would otherwise
// dominate the mean.
func medianNormMSE(series [][]float64, methods []predictorRun) (names []string, medians []float64) {
	const warmup = 8
	for _, m := range methods {
		var nmses []float64
		for _, ser := range series {
			if len(ser) <= warmup+2 {
				continue
			}
			ev, err := predict.Evaluate(m.mk(), ser, warmup, m.refit)
			if err != nil || math.IsNaN(ev.NormMSE) {
				continue
			}
			nmses = append(nmses, ev.NormMSE)
		}
		names = append(names, m.name)
		medians = append(medians, stats.Median(nmses))
	}
	return names, medians
}

// Render prints Fig 4(c).
func (r Fig4cResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4(c): per-BS traffic prediction, %d series, epoch=%d periods (normalized MSE, lower is better)\n",
		r.BSSeries, r.EpochLen)
	for i, m := range r.Methods {
		fmt.Fprintf(&b, "  %-26s %.3f\n", m, r.MeanNormMSE[i])
	}
	return b.String()
}
