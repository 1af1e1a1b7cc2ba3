// Package ebslab's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (see DESIGN.md's per-experiment index) and run
// the ablations it motivates. Each benchmark executes one experiment per
// iteration on a shared small fleet and publishes its headline statistic
// via b.ReportMetric, so `go test -bench . -benchmem` doubles as the
// reproduction harness.
package ebslab

import (
	"fmt"
	"sync"
	"testing"

	"ebslab/internal/core"
	"ebslab/internal/hypervisor"
	"ebslab/internal/workload"
)

var (
	benchOnce  sync.Once
	benchStudy *core.Study
	benchErr   error
)

func study(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.DCs = 2
		cfg.NodesPerDC = 40
		cfg.BSPerDC = 12
		cfg.BSPerCluster = 6
		cfg.Users = 60
		cfg.DurationSec = 240
		benchStudy, benchErr = core.NewStudy(cfg)
	})
	if benchErr != nil {
		b.Fatalf("NewStudy: %v", benchErr)
	}
	return benchStudy
}

func BenchmarkTable2(b *testing.B) {
	s := study(b)
	var r core.Table2Result
	for i := 0; i < b.N; i++ {
		r = s.Table2Summary()
	}
	b.ReportMetric(float64(r.VDs), "vds")
}

func BenchmarkTable3(b *testing.B) {
	s := study(b)
	var r core.Table3Result
	for i := 0; i < b.N; i++ {
		r = s.Table3Baseline()
	}
	b.ReportMetric(r.DCs[0].Levels[1].P2AMedR, "vm-read-p2a")
	b.ReportMetric(r.DCs[0].Levels[1].CCR1Read, "vm-read-ccr1-pct")
}

func BenchmarkTable4(b *testing.B) {
	s := study(b)
	var r core.Table4Result
	for i := 0; i < b.N; i++ {
		r = s.Table4ByApp()
	}
	b.ReportMetric(float64(len(r.Rows)), "app-classes")
}

func BenchmarkFig2a(b *testing.B) {
	s := study(b)
	var r core.Fig2aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2aWTCoV()
	}
	b.ReportMetric(r.MedianRead[0], "wt-cov-read")
	b.ReportMetric(r.MedianWrite[0], "wt-cov-write")
}

func BenchmarkFig2b(b *testing.B) {
	s := study(b)
	var r core.Fig2bResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2bThreeTier()
	}
	b.ReportMetric(r.VM2VDRead, "vm2vd-cov-read")
	b.ReportMetric(r.TypeIIIPct, "type3-pct")
}

func BenchmarkFig2c(b *testing.B) {
	s := study(b)
	var r core.Fig2cResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2cHottestQP()
	}
	b.ReportMetric(100*r.FracAbove80Read, "nodes-above80-read-pct")
}

func BenchmarkFig2d(b *testing.B) {
	s := study(b)
	var r core.Fig2dResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2dRebinding(core.RebindOptions{MaxNodes: 24, WinSec: 10})
	}
	b.ReportMetric(100*r.FracImproved, "improved-pct")
	b.ReportMetric(r.MedianGain, "median-gain")
}

func BenchmarkFig2ef(b *testing.B) {
	s := study(b)
	var r core.Fig2efResult
	for i := 0; i < b.N; i++ {
		r = s.Fig2efBurstSeries(core.NodeWindowOptions{MaxNodes: 16, WinSec: 10})
	}
	b.ReportMetric(r.BurstyP2A, "bursty-p2a")
	b.ReportMetric(r.CalmP2A, "calm-p2a")
}

func BenchmarkFig3a(b *testing.B) {
	s := study(b)
	var r core.Fig3aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig3aSingleVDCase()
	}
	b.ReportMetric(100*r.PeakRAR, "peak-rar-pct")
}

func BenchmarkFig3b(b *testing.B) {
	s := study(b)
	var r core.Fig3bcResult
	for i := 0; i < b.N; i++ {
		r = s.Fig3bRAR(false)
	}
	b.ReportMetric(100*r.MedianRARTput, "median-rar-pct")
	b.ReportMetric(r.TputOverIOPS, "tput-over-iops")
}

func BenchmarkFig3c(b *testing.B) {
	s := study(b)
	var r core.Fig3bcResult
	for i := 0; i < b.N; i++ {
		r = s.Fig3bRAR(true)
	}
	b.ReportMetric(100*r.WriteDriven, "write-driven-pct")
}

func BenchmarkFig3de(b *testing.B) {
	s := study(b)
	var r core.Fig3deResult
	for i := 0; i < b.N; i++ {
		r = s.Fig3deReduction()
	}
	b.ReportMetric(100*r.MedianRRTput[len(r.MedianRRTput)-1], "rr-tput-p08-pct")
}

func BenchmarkFig3fg(b *testing.B) {
	s := study(b)
	var r core.Fig3fgResult
	for i := 0; i < b.N; i++ {
		r = s.Fig3fgLendingGain(false)
	}
	for i, p := range r.Rates {
		b.ReportMetric(100*r.PosFrac[i], fmt.Sprintf("p%02.0f-positive-pct", 10*p))
	}
}

func BenchmarkFig4a(b *testing.B) {
	s := study(b)
	var r core.Fig4aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig4aFrequentMigration()
	}
	b.ReportMetric(100*r.MaxProp[0], "max-freq-pct")
}

func BenchmarkFig4b(b *testing.B) {
	s := study(b)
	var r core.Fig4bResult
	for i := 0; i < b.N; i++ {
		r = s.Fig4bImporterSelection()
	}
	b.ReportMetric(r.MedianInterval[len(r.MedianInterval)-1], "ideal-interval")
}

func BenchmarkFig4c(b *testing.B) {
	s := study(b)
	var r core.Fig4cResult
	for i := 0; i < b.N; i++ {
		r = s.Fig4cPredictionMSE()
	}
	b.ReportMetric(r.MeanNormMSE[1], "arima-nmse")
	b.ReportMetric(r.MeanNormMSE[4], "attn-period-nmse")
}

func BenchmarkFig5a(b *testing.B) {
	s := study(b)
	var r core.Fig5aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig5aReadWriteCoV()
	}
	b.ReportMetric(100*r.FracAboveDiagonal, "above-diag-pct")
}

func BenchmarkFig5b(b *testing.B) {
	s := study(b)
	var r core.Fig5bResult
	for i := 0; i < b.N; i++ {
		r = s.Fig5bSegmentDominance()
	}
	b.ReportMetric(100*r.FracAbove09, "one-sided-clusters-pct")
}

func BenchmarkFig5c(b *testing.B) {
	s := study(b)
	var r core.Fig5cResult
	for i := 0; i < b.N; i++ {
		r = s.Fig5cWriteThenRead()
	}
	b.ReportMetric(r.WTRReadCoV, "wtr-read-cov")
	b.ReportMetric(r.WriteOnlyReadCoV, "wo-read-cov")
}

func BenchmarkFig6a(b *testing.B) {
	benchFig6(b, func(r core.Fig6Result) (float64, string) {
		return 100 * r.MedianAccessRate[0], "access-rate-64mib-pct"
	})
}

func BenchmarkFig6b(b *testing.B) {
	benchFig6(b, func(r core.Fig6Result) (float64, string) {
		return 100 * r.MedianBlockShare[0], "block-share-64mib-pct"
	})
}

func BenchmarkFig6c(b *testing.B) {
	benchFig6(b, func(r core.Fig6Result) (float64, string) {
		return 100 * r.WriteDomFrac[0], "write-dom-64mib-pct"
	})
}

func BenchmarkFig6d(b *testing.B) {
	benchFig6(b, func(r core.Fig6Result) (float64, string) {
		return 100 * r.MeanHotRate[0], "hot-rate-64mib-pct"
	})
}

func benchFig6(b *testing.B, metric func(core.Fig6Result) (float64, string)) {
	s := study(b)
	var r core.Fig6Result
	for i := 0; i < b.N; i++ {
		r = s.Fig6HottestBlocks(core.VDSampleOptions{MaxVDs: 16, MaxEventsPerVD: 4000})
	}
	v, name := metric(r)
	b.ReportMetric(v, name)
}

func BenchmarkFig7a(b *testing.B) {
	s := study(b)
	var r core.Fig7aResult
	for i := 0; i < b.N; i++ {
		r = s.Fig7aHitRatio(core.VDSampleOptions{MaxVDs: 12, MaxEventsPerVD: 4000})
	}
	b.ReportMetric(100*r.LRUMed[0], "lru-64mib-pct")
	b.ReportMetric(100*r.FCMed[len(r.FCMed)-1], "fc-2048mib-pct")
}

func BenchmarkFig7bc(b *testing.B) {
	s := study(b)
	var r core.Fig7bcResult
	for i := 0; i < b.N; i++ {
		r = s.Fig7bcLatencyGain(core.VDSampleOptions{MaxVDs: 12, MaxEventsPerVD: 4000})
	}
	b.ReportMetric(100*r.CNWrite[0], "cn-write-p0-pct")
	b.ReportMetric(100*r.BSWrite[0], "bs-write-p0-pct")
}

func BenchmarkFig7d(b *testing.B) {
	s := study(b)
	var r core.Fig7dResult
	for i := 0; i < b.N; i++ {
		r = s.Fig7dSpaceUtilization()
	}
	b.ReportMetric(r.CNSpread[0], "cn-spread")
	b.ReportMetric(r.BSSpread[0], "bs-spread")
}

// --- Ablations called out in DESIGN.md ---

// BenchmarkAblationRebindPeriod sweeps the rebinding period (in 10 ms
// slots): the paper argues shorter periods are needed than NVMe
// virtualization can afford.
func BenchmarkAblationRebindPeriod(b *testing.B) {
	s := study(b)
	for _, period := range []int{1, 5, 10, 50} {
		period := period
		b.Run(periodName(period), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				nodes := 0
				improved := 0
				cfg := hypervisor.RebindConfig{PeriodSlots: period, Trigger: 1.2, EvalSlots: 100}
				r := s.Fig2dRebinding(core.RebindOptions{MaxNodes: 16, WinSec: 10, Config: cfg})
				for _, p := range r.Points {
					nodes++
					if p.Gain < 0.999 {
						improved++
					}
				}
				if nodes > 0 {
					frac = float64(improved) / float64(nodes)
				}
			}
			b.ReportMetric(100*frac, "improved-pct")
		})
	}
}

func periodName(p int) string {
	switch p {
	case 1:
		return "10ms"
	case 5:
		return "50ms"
	case 10:
		return "100ms"
	}
	return "500ms"
}

// BenchmarkAblationDispatch compares single-WT hosting against the per-IO
// dispatch models of §4.4.
func BenchmarkAblationDispatch(b *testing.B) {
	s := study(b)
	for _, policy := range []hypervisor.DispatchPolicy{
		hypervisor.DispatchSingleWT, hypervisor.DispatchLeastLoaded, hypervisor.DispatchRoundRobinIO,
	} {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			var r core.DispatchAblation
			for i := 0; i < b.N; i++ {
				r = s.AblateDispatch(core.DispatchOptions{MaxNodes: 16, WinSec: 10, Policy: policy})
			}
			b.ReportMetric(r.MedianCoV, "median-wt-cov")
			b.ReportMetric(float64(r.SyncOps), "sync-ops")
		})
	}
}

// BenchmarkAblationImporter runs the full importer-policy sweep (the
// Fig 4(b) study) as one benchmark per policy.
func BenchmarkAblationImporter(b *testing.B) {
	s := study(b)
	r := s.Fig4bImporterSelection()
	for i, name := range r.Policies {
		i := i
		b.Run(name, func(b *testing.B) {
			var v float64
			for j := 0; j < b.N; j++ {
				rr := s.Fig4bImporterSelection()
				v = rr.MedianInterval[i]
			}
			b.ReportMetric(v, "median-interval")
		})
	}
}

// BenchmarkAblationHosting compares the §4.4 hosting models on sampled IO.
func BenchmarkAblationHosting(b *testing.B) {
	s := study(b)
	var r core.HostingAblation
	for i := 0; i < b.N; i++ {
		r = s.AblateHosting(core.NodeWindowOptions{MaxNodes: 12, WinSec: 6})
	}
	for mode, iso := range r.MedianIsolation {
		b.ReportMetric(iso, mode.String()+"-isolation")
	}
}

// BenchmarkAblationCachePolicy adds CLOCK to the Fig 7(a) comparison.
func BenchmarkAblationCachePolicy(b *testing.B) {
	s := study(b)
	var r core.CachePolicyAblation
	for i := 0; i < b.N; i++ {
		r = s.AblateCachePolicy(core.VDSampleOptions{MaxVDs: 10, MaxEventsPerVD: 4000})
	}
	for _, name := range []string{"fifo", "clock", "lru", "frozen"} {
		b.ReportMetric(100*r.Median[name], name+"-hit-pct")
	}
}

// BenchmarkAblationPredictors runs the full forecaster roster.
func BenchmarkAblationPredictors(b *testing.B) {
	s := study(b)
	var r core.PredictorAblation
	for i := 0; i < b.N; i++ {
		r = s.AblatePredictors()
	}
	for i, m := range r.Methods {
		b.ReportMetric(r.Median[i], m+"-nmse")
	}
}

// BenchmarkAblationFailover measures BS-failure recovery quality.
func BenchmarkAblationFailover(b *testing.B) {
	s := study(b)
	var r core.FailoverAblation
	for i := 0; i < b.N; i++ {
		r = s.AblateFailover()
	}
	b.ReportMetric(r.Greedy.MaxOverload, "greedy-overload")
	b.ReportMetric(r.Random.MaxOverload, "random-overload")
}
