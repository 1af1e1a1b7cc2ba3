package core

import (
	"fmt"
	"strings"

	"ebslab/internal/hypervisor"
)

// Experiment is one entry of the reproduction catalog: a table, a figure
// group, or the ablation block, rendered as paper-style text over a Study.
type Experiment struct {
	ID     string // selection key (cmd/analyze -run)
	Title  string // report heading
	Render func(*Study) string
}

// Catalog lists every experiment of the reproduction in report order. It is
// the one place that says what "everything" is: cmd/analyze selects from it
// by ID and renders the selection in this order.
func Catalog() []Experiment {
	return []Experiment{
		{"t2", "Table 2 — dataset summary", func(s *Study) string { return s.Table2Summary().Render() }},
		{"t3", "Table 3 — baseline statistics", func(s *Study) string { return s.Table3Baseline().Render() }},
		{"t4", "Table 4 — skewness by application", func(s *Study) string { return s.Table4ByApp().Render() }},
		{"f2", "Figure 2 — hypervisor load balancing", func(s *Study) string {
			return s.Fig2aWTCoV().Render() +
				s.Fig2bThreeTier().Render() +
				s.Fig2cHottestQP().Render() +
				s.Fig2dRebinding(RebindOptions{}).Render() +
				s.Fig2efBurstSeries(NodeWindowOptions{}).Render()
		}},
		{"f3", "Figure 3 — traffic throttle", func(s *Study) string {
			return s.Fig3aSingleVDCase().Render() +
				s.Fig3bRAR(false).Render() +
				s.Fig3bRAR(true).Render() +
				s.Fig3deReduction().Render() +
				s.Fig3fgLendingGain(false).Render() +
				s.Fig3fgLendingGain(true).Render()
		}},
		{"f4", "Figure 4 — storage-cluster balancing", func(s *Study) string {
			return s.Fig4aFrequentMigration().Render() +
				s.Fig4bImporterSelection().Render() +
				s.Fig4cPredictionMSE().Render()
		}},
		{"f5", "Figure 5 — balanced write, skewed read", func(s *Study) string {
			return s.Fig5aReadWriteCoV().Render() +
				s.Fig5bSegmentDominance().Render() +
				s.Fig5cWriteThenRead().Render()
		}},
		{"f6", "Figure 6 — LBA hotspots", func(s *Study) string { return s.Fig6HottestBlocks(VDSampleOptions{}).Render() }},
		{"f7", "Figure 7 — caching", func(s *Study) string {
			return s.Fig7aHitRatio(VDSampleOptions{}).Render() +
				s.Fig7bcLatencyGain(VDSampleOptions{}).Render() +
				s.Fig7dSpaceUtilization().Render()
		}},
		{"ab", "Ablations", renderAblations},
	}
}

func renderAblations(s *Study) string {
	var b strings.Builder
	b.WriteString(s.AblateHosting(NodeWindowOptions{}).Render())
	b.WriteString(s.AblateCachePolicy(VDSampleOptions{}).Render())
	b.WriteString(s.AblateCacheDeployment(VDSampleOptions{}).Render())
	b.WriteString(s.AblatePredictors().Render())
	b.WriteString(s.AblateFailover().Render())
	b.WriteString(s.StudyPageCache().Render())
	for _, p := range []int{1, 10, 50} {
		r := s.Fig2dRebinding(RebindOptions{MaxNodes: 24, WinSec: 10, Config: hypervisor.RebindConfig{PeriodSlots: p, Trigger: 1.2, EvalSlots: 5}})
		fmt.Fprintf(&b, "Ablation: rebind period %d0 ms: improved %.1f%%, median gain %.2f, rebinds/slot %.4f\n",
			p, 100*r.FracImproved, r.MedianGain, r.MedianRatio/float64(p))
	}
	for _, pol := range []hypervisor.DispatchPolicy{
		hypervisor.DispatchSingleWT, hypervisor.DispatchLeastLoaded, hypervisor.DispatchRoundRobinIO,
	} {
		r := s.AblateDispatch(DispatchOptions{Policy: pol})
		fmt.Fprintf(&b, "Ablation: dispatch %s: median WT-CoV %.2f, %d sync ops over %d nodes\n",
			pol, r.MedianCoV, r.SyncOps, r.Nodes)
	}
	return b.String()
}
