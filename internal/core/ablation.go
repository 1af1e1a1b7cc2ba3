package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ebslab/internal/balancer"
	"ebslab/internal/cache"
	"ebslab/internal/cluster"
	"ebslab/internal/hypervisor"
	"ebslab/internal/latency"
	"ebslab/internal/stats"
	"ebslab/internal/trace"
	"ebslab/internal/xrand"
)

// DispatchAblation summarizes the §4.4 dispatch-model comparison across
// the busiest nodes.
type DispatchAblation struct {
	Policy hypervisor.DispatchPolicy
	// MedianCoV is the median per-node normalized WT CoV.
	MedianCoV float64
	// SyncOps totals the cross-thread handoffs all nodes paid.
	SyncOps int
	Nodes   int
}

// AblateDispatch replays per-QP slot traffic of the busiest nodes under one
// dispatch policy (single-WT hosting vs per-IO dispatch).
func (s *Study) AblateDispatch(opt DispatchOptions) DispatchAblation {
	mustOpt(opt.Validate())
	maxNodes, winSec, policy := opt.MaxNodes, opt.WinSec, opt.Policy
	if maxNodes <= 0 {
		maxNodes = 24
	}
	if winSec <= 0 {
		winSec = 10
	}
	res := DispatchAblation{Policy: policy}
	var covs []float64
	s.eachBusyNode(maxNodes, winSec, func(binding *hypervisor.Binding, slot [][]float64) {
		r := hypervisor.SimulateDispatch(binding, slot, policy)
		if math.IsNaN(r.CoV) {
			return
		}
		res.Nodes++
		res.SyncOps += r.SyncOps
		covs = append(covs, r.CoV)
	})
	res.MedianCoV = stats.Median(covs)
	return res
}

// HostingAblation compares single-WT polling with a shared node-wide FIFO
// over real sampled IO events (§4.4's fairness-vs-balance tension).
type HostingAblation struct {
	// MedianIsolation[mode] and MedianWaitUS[mode] index by HostingMode.
	MedianIsolation map[hypervisor.HostingMode]float64
	MedianWaitUS    map[hypervisor.HostingMode]float64
	Nodes           int
}

// AblateHosting replays each busy node's sampled IO events through both
// hosting models and compares median wait and isolation.
func (s *Study) AblateHosting(opt NodeWindowOptions) HostingAblation {
	mustOpt(opt.Validate())
	maxNodes, winSec := opt.MaxNodes, opt.WinSec
	if maxNodes <= 0 {
		maxNodes = 24
	}
	if winSec <= 0 {
		winSec = 10
	}
	top := s.Fleet.Topology
	res := HostingAblation{
		MedianIsolation: map[hypervisor.HostingMode]float64{},
		MedianWaitUS:    map[hypervisor.HostingMode]float64{},
	}
	iso := map[hypervisor.HostingMode][]float64{}
	wait := map[hypervisor.HostingMode][]float64{}
	for _, n := range s.busiestNodes(maxNodes) {
		binding := hypervisor.RoundRobin(top, n)
		var ios []hypervisor.PollIO
		seen := map[int32]bool{}
		for _, qp := range binding.QPs {
			vd := top.VDOfQP(qp)
			if seen[int32(vd)] {
				continue
			}
			seen[int32(vd)] = true
			s.Fleet.GenEvents(vd, winSec, 64, func(ev workloadEvent) {
				ios = append(ios, hypervisor.PollIO{
					QP: ev.QP, ArriveUS: ev.TimeUS,
					ServiceUS: hypervisor.ServiceModel(ev.Size),
				})
			})
		}
		if len(ios) < 10 {
			continue
		}
		res.Nodes++
		for _, mode := range []hypervisor.HostingMode{hypervisor.SingleWTPolling, hypervisor.SharedQueueFIFO} {
			r := hypervisor.SimulatePolling(binding, ios, mode)
			if !math.IsNaN(r.Isolation) {
				iso[mode] = append(iso[mode], r.Isolation)
			}
			var all []float64
			for _, w := range r.MeanWaitUS {
				if !math.IsNaN(w) {
					all = append(all, w)
				}
			}
			if len(all) > 0 {
				wait[mode] = append(wait[mode], stats.Mean(all))
			}
		}
	}
	for mode, xs := range iso {
		res.MedianIsolation[mode] = stats.Median(xs)
	}
	for mode, xs := range wait {
		res.MedianWaitUS[mode] = stats.Median(xs)
	}
	return res
}

// Render prints the hosting ablation.
func (r HostingAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: hosting model over %d nodes (isolation < 1 insulates light QPs)\n", r.Nodes)
	for _, mode := range []hypervisor.HostingMode{hypervisor.SingleWTPolling, hypervisor.SharedQueueFIFO} {
		fmt.Fprintf(&b, "  %-18s median isolation %.2f, median wait %.0f us\n",
			mode, r.MedianIsolation[mode], r.MedianWaitUS[mode])
	}
	return b.String()
}

// CachePolicyAblation extends Fig 7(a) with CLOCK alongside FIFO/LRU/FC.
type CachePolicyAblation struct {
	BlockMiB int64
	// Median hit ratios per policy name.
	Median map[string]float64
	VDs    int
}

// AblateCachePolicy replays study VDs through four cache policies at a
// 256 MiB block size.
func (s *Study) AblateCachePolicy(opt VDSampleOptions) CachePolicyAblation {
	mustOpt(opt.Validate())
	const blockMiB = 256
	maxVDs, maxEventsPerVD := opt.MaxVDs, opt.MaxEventsPerVD
	if maxVDs <= 0 {
		maxVDs = 24
	}
	if maxEventsPerVD <= 0 {
		maxEventsPerVD = 8000
	}
	vds := s.studyVDs(maxVDs)
	res := CachePolicyAblation{BlockMiB: blockMiB, VDs: len(vds), Median: map[string]float64{}}
	for name, xs := range s.hitRatios(vds, maxEventsPerVD, []int64{blockMiB}, pagePolicies)[0] {
		res.Median[name] = stats.Median(xs)
	}
	return res
}

// Render prints the cache-policy ablation.
func (r CachePolicyAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: cache policies at %d MiB over %d VDs (median hit ratio)\n", r.BlockMiB, r.VDs)
	for _, name := range []string{"fifo", "clock", "lru", "frozen"} {
		fmt.Fprintf(&b, "  %-8s %.1f%%\n", name, 100*r.Median[name])
	}
	return b.String()
}

// PredictorAblation runs the full forecaster roster (the Appendix C five
// plus naive, EWMA, and Holt) on per-BS write series.
type PredictorAblation struct {
	Methods []string
	Median  []float64 // median normalized MSE per method
	Series  int
}

// AblatePredictors evaluates every implemented predictor at per-period
// refit cadence; its linear, arima and attention rows are Fig 4(c)'s P1, P2
// and P5, scored once per Study.
func (s *Study) AblatePredictors() PredictorAblation {
	return PredictorAblation{
		Methods: []string{"naive", "ewma", "holt", "linear", "arima", "gbt", "attention"},
		Median:  s.scores(fcNaive, fcEWMA, fcHolt, fcLinear, fcARIMA, fcGBT, fcAttention),
		Series:  len(s.section6().bsWrite),
	}
}

// DeploymentAblation compares cache deployment locations — CN-only,
// BS-only, and the §7.3.2 hybrid — on the same IO populations.
type DeploymentAblation struct {
	BlockMiB int64
	CNFrac   float64
	// Median write-path p50 gains per deployment (lower = better).
	CNP50, BSP50, HybridP50 float64
	// Median hit ratios per deployment.
	CNHit, BSHit, HybridHit float64
	VDs                     int
}

// AblateCacheDeployment evaluates the three deployments over the cacheable
// study VDs with a frozenBlockMiB frozen cache; the hybrid places a quarter
// of it at the CN.
func (s *Study) AblateCacheDeployment(opt VDSampleOptions) DeploymentAblation {
	mustOpt(opt.Validate())
	const cnFrac = 0.25
	maxVDs, maxEventsPerVD := opt.MaxVDs, opt.MaxEventsPerVD
	if maxVDs <= 0 {
		maxVDs = 16
	}
	if maxEventsPerVD <= 0 {
		maxEventsPerVD = 8000
	}
	model := latency.Default()
	var cnP, bsP, hyP, cnH, bsH, hyH []float64
	take := func(rs []latency.GainResult, p *[]float64, h *[]float64) {
		for _, g := range rs {
			if g.Op == trace.OpWrite && !math.IsNaN(g.P50) {
				*p = append(*p, g.P50)
				*h = append(*h, g.HitRatio)
			}
		}
	}
	vds := s.eachCacheableVD(maxVDs, maxEventsPerVD, frozenBlockMiB<<20, func(accesses []cache.Access, hotOff, hotLen, seed int64) {
		take(latency.EvaluateGain(model, accesses, hotOff, hotLen, latency.CNCache, seed), &cnP, &cnH)
		take(latency.EvaluateGain(model, accesses, hotOff, hotLen, latency.BSCache, seed), &bsP, &bsH)
		take(latency.EvaluateHybridGain(model, accesses, hotOff, hotLen, cnFrac, seed), &hyP, &hyH)
	})
	return DeploymentAblation{
		BlockMiB: frozenBlockMiB, CNFrac: cnFrac, VDs: vds,
		CNP50: stats.Median(cnP), BSP50: stats.Median(bsP), HybridP50: stats.Median(hyP),
		CNHit: stats.Median(cnH), BSHit: stats.Median(bsH), HybridHit: stats.Median(hyH),
	}
}

// Render prints the deployment ablation.
func (r DeploymentAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: cache deployment (%d MiB block, hybrid CN share %.0f%%, %d VDs; write p50 gain, lower=better)\n",
		r.BlockMiB, 100*r.CNFrac, r.VDs)
	fmt.Fprintf(&b, "  %-10s p50 gain %5.1f%%, hit %5.1f%%\n", "cn-only", 100*r.CNP50, 100*r.CNHit)
	fmt.Fprintf(&b, "  %-10s p50 gain %5.1f%%, hit %5.1f%%\n", "bs-only", 100*r.BSP50, 100*r.BSHit)
	fmt.Fprintf(&b, "  %-10s p50 gain %5.1f%%, hit %5.1f%%\n", "hybrid", 100*r.HybridP50, 100*r.HybridHit)
	return b.String()
}

// FailoverAblation compares BlockServer-failure recovery policies on the
// busiest storage cluster.
type FailoverAblation struct {
	ClusterIdx int
	Failed     int // local BS index that failed
	// Per policy: survivor max-overload (hottest survivor / survivor mean)
	// and survivor CoV after redistribution.
	Greedy, Random balancer.FailoverResult
}

// AblateFailover kills the hottest BlockServer of the busiest cluster at
// mid-window and redistributes its segments under both policies.
func (s *Study) AblateFailover() FailoverAblation {
	v := s.section6()
	ct := v.clusters[v.worst]
	period := ct.NPeriods / 2
	// Fail the hottest BS at that period.
	load := make([]float64, ct.Placement.NumBS())
	for seg, rows := range ct.Traffic {
		load[ct.Placement.BSOf(cluster.SegmentID(seg))] += rows[period].Total()
	}
	failed := cluster.StorageNodeID(0)
	for b := range load {
		if load[b] > load[failed] {
			failed = cluster.StorageNodeID(b)
		}
	}
	rng := func() *rand.Rand { return xrand.Get(s.Fleet.Cfg.Seed).Rand }
	res := FailoverAblation{ClusterIdx: v.worst, Failed: int(failed)}
	res.Greedy = balancer.Failover(ct.Placement.Clone(), ct.Traffic, period, failed, balancer.FailoverGreedy, rng())
	res.Random = balancer.Failover(ct.Placement.Clone(), ct.Traffic, period, failed, balancer.FailoverRandom, rng())
	return res
}

// Render prints the failover ablation.
func (r FailoverAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: BS failover on cluster %d (failed BS %d)\n", r.ClusterIdx, r.Failed)
	for _, fr := range []balancer.FailoverResult{r.Greedy, r.Random} {
		fmt.Fprintf(&b, "  %-16s moved %3d segments: survivor CoV %.2f, max overload %.2fx\n",
			fr.Policy, fr.Moved, fr.CoVAfter, fr.MaxOverload)
	}
	return b.String()
}

// Render prints the predictor ablation.
func (r PredictorAblation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: predictors on %d per-BS write series (median normalized MSE)\n", r.Series)
	for i, m := range r.Methods {
		fmt.Fprintf(&b, "  %-10s %.3f\n", m, r.Median[i])
	}
	return b.String()
}
