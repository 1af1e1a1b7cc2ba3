package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"ebslab/internal/workload"
)

// The experiments are statistical, so the tests share one moderately-sized
// fleet and assert the paper's qualitative shapes rather than point values.
var (
	testStudyOnce sync.Once
	testStudy     *Study
	testStudyErr  error
)

func study(t *testing.T) *Study {
	t.Helper()
	testStudyOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.DCs = 2
		cfg.NodesPerDC = 60
		cfg.BSPerDC = 12
		cfg.BSPerCluster = 6
		cfg.Users = 80
		cfg.DurationSec = 300
		testStudy, testStudyErr = NewStudy(cfg)
	})
	if testStudyErr != nil {
		t.Fatalf("NewStudy: %v", testStudyErr)
	}
	return testStudy
}

func TestNewStudyRejectsBadConfig(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.DCs = 0
	if _, err := NewStudy(cfg); err == nil {
		t.Fatal("NewStudy accepted invalid config")
	}
}

func TestTable2Summary(t *testing.T) {
	s := study(t)
	r := s.Table2Summary()
	if r.Users != 80 || r.VMs == 0 || r.VDs < r.VMs {
		t.Fatalf("summary counts: %+v", r)
	}
	if r.MaxVMsPerUser < int(r.MedianVMsPerUser) {
		t.Fatal("max VMs per user below median")
	}
	if r.TotalWriteGiB <= 0 || r.TotalReadGiB <= 0 {
		t.Fatal("zero traffic")
	}
	if !strings.Contains(r.Render(), "Table 2") {
		t.Fatal("render missing title")
	}
}

func TestTable3ShapesHold(t *testing.T) {
	s := study(t)
	r := s.Table3Baseline()
	if len(r.DCs) != 2 {
		t.Fatalf("DCs = %d", len(r.DCs))
	}
	for _, dc := range r.DCs {
		byLevel := map[string]LevelStats{}
		for _, lv := range dc.Levels {
			byLevel[lv.Level] = lv
			if lv.CCR1Read < 0 || lv.CCR1Read > 100 || lv.CCR20Read < lv.CCR1Read {
				t.Fatalf("DC %d level %s: CCR inconsistent: %+v", dc.DC, lv.Level, lv)
			}
		}
		// O1/O2: VM-level temporal skew dwarfs SN-level; read P2A exceeds
		// write P2A at the VM level.
		vm, sn := byLevel["VM"], byLevel["SN"]
		if !(vm.P2AMedR > sn.P2AMedR) {
			t.Errorf("DC %d: VM read P2A %v not above SN %v", dc.DC, vm.P2AMedR, sn.P2AMedR)
		}
		if !(vm.P2AMedR > vm.P2AMedW) {
			t.Errorf("DC %d: VM read P2A %v not above write %v", dc.DC, vm.P2AMedR, vm.P2AMedW)
		}
		// Segment-level spatial skew is the worst of all levels.
		seg := byLevel["Seg"]
		if !(seg.CCR1Read >= vm.CCR1Read) {
			t.Errorf("DC %d: Seg 1%%-CCR %v below VM %v", dc.DC, seg.CCR1Read, vm.CCR1Read)
		}
	}
	if !strings.Contains(r.Render(), "Table 3") {
		t.Fatal("render missing title")
	}
}

func TestTable4Shapes(t *testing.T) {
	s := study(t)
	r := s.Table4ByApp()
	if len(r.Rows) == 0 {
		t.Fatal("no app rows")
	}
	var shareR, shareW float64
	byApp := map[string]AppRow{}
	for _, row := range r.Rows {
		shareR += row.ShareRead
		shareW += row.ShareWr
		byApp[row.App.String()] = row
	}
	if math.Abs(shareR-100) > 1 || math.Abs(shareW-100) > 1 {
		t.Fatalf("shares do not sum to 100: %v / %v", shareR, shareW)
	}
	// BigData carries the most traffic but the least skew (Table 4's core
	// finding).
	big, ok := byApp["BigData"]
	if !ok {
		t.Fatal("no BigData row")
	}
	for name, row := range byApp {
		if name == "BigData" {
			continue
		}
		if row.ShareRead+row.ShareWr > big.ShareRead+big.ShareWr {
			t.Errorf("%s share %v exceeds BigData %v", name, row.ShareRead+row.ShareWr, big.ShareRead+big.ShareWr)
		}
	}
	if !strings.Contains(r.Render(), "Table 4") {
		t.Fatal("render missing title")
	}
}

func TestFig2aShapes(t *testing.T) {
	s := study(t)
	r := s.Fig2aWTCoV()
	if len(r.MedianRead) != 3 {
		t.Fatalf("scales = %d", len(r.MedianRead))
	}
	for i := range r.MedianRead {
		if !(r.MedianRead[i] > 0.2) || !(r.MedianWrite[i] > 0.2) {
			t.Errorf("WT-CoV medians implausibly low: %+v", r)
		}
		if r.P90Read[i] < r.MedianRead[i] {
			t.Errorf("p90 below median")
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig2bShapes(t *testing.T) {
	s := study(t)
	r := s.Fig2bThreeTier()
	// VM->VD skew is extreme (paper: ~0.97).
	if !(r.VM2VDRead > 0.7) || !(r.VM2VDWrite > 0.7) {
		t.Errorf("VM->VD CoV too low: %+v", r)
	}
	// Write VD->QP skew exceeds read (paper: 0.81 vs 0.39).
	if !(r.VD2QPWrite > r.VD2QPRead) {
		t.Errorf("VD->QP write CoV %v not above read %v", r.VD2QPWrite, r.VD2QPRead)
	}
	// Type III dominates (paper: 78.9%).
	if !(r.TypeIIIPct > r.TypeIIPct) || !(r.TypeIIIPct > r.TypeIPct) {
		t.Errorf("type shares: %+v", r)
	}
	total := r.TypeIPct + r.TypeIIPct + r.TypeIIIPct
	if math.Abs(total-100) > 1 {
		t.Errorf("type shares sum to %v", total)
	}
	// The hottest VM dominates node traffic (paper: 86.4% / 75.0%).
	if !(r.HotVMShareRead > 50) || !(r.HotVMShareWrite > 50) {
		t.Errorf("hottest-VM shares too low: %+v", r)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig2cShapes(t *testing.T) {
	s := study(t)
	r := s.Fig2cHottestQP()
	if len(r.SharesRead) == 0 || len(r.SharesWrite) == 0 {
		t.Fatal("no share samples")
	}
	for _, v := range r.SharesRead {
		if v < 0 || v > 1 {
			t.Fatalf("share %v outside [0,1]", v)
		}
	}
	// A sizable fraction of nodes funnel >80% through one QP.
	if !(r.FracAbove80Read > 0.1) {
		t.Errorf("read frac above 80%% = %v, want > 0.1", r.FracAbove80Read)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig2dShapes(t *testing.T) {
	s := study(t)
	r := s.Fig2dRebinding(RebindOptions{MaxNodes: 30, WinSec: 10})
	if len(r.Points) == 0 {
		t.Fatal("no rebinding points")
	}
	// §4.3: rebinding helps only a minority of nodes.
	if !(r.FracImproved < 0.7) {
		t.Errorf("rebinding improved %v of nodes; expected a minority", r.FracImproved)
	}
	for _, p := range r.Points {
		if p.Ratio < 0 || p.Ratio > 1 {
			t.Fatalf("rebinding ratio %v outside [0,1]", p.Ratio)
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig2efShapes(t *testing.T) {
	s := study(t)
	r := s.Fig2efBurstSeries(NodeWindowOptions{MaxNodes: 20, WinSec: 10})
	if len(r.BurstySeries) == 0 || len(r.CalmSeries) == 0 {
		t.Fatal("missing series")
	}
	if !(r.BurstyP2A >= r.CalmP2A) {
		t.Errorf("bursty P2A %v below calm %v", r.BurstyP2A, r.CalmP2A)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig3aShapes(t *testing.T) {
	s := study(t)
	r := s.Fig3aSingleVDCase()
	if r.NumVDs == 0 {
		t.Skip("no throttled multi-VD VM in test window")
	}
	// The showcased case must have headroom while throttled.
	if !(r.PeakRAR > 0.3) {
		t.Errorf("peak RAR %v too low for a showcase", r.PeakRAR)
	}
	if len(r.VDNorm) != s.Dur || len(r.VMNorm) != s.Dur {
		t.Fatalf("series lengths %d/%d", len(r.VDNorm), len(r.VMNorm))
	}
	for i := range r.VDNorm {
		if r.VDNorm[i] > r.VMNorm[i]+1e-9 {
			t.Fatal("single VD exceeds VM total")
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig3bShapes(t *testing.T) {
	s := study(t)
	for _, multiVM := range []bool{false, true} {
		r := s.Fig3bRAR(multiVM)
		if r.Events == 0 {
			t.Skipf("no throttle events (%s)", r.Scope)
		}
		// §5.1: abundant headroom during throttles.
		if !(r.MedianRARTput > 0.3) {
			t.Errorf("%s: median RAR %v too low", r.Scope, r.MedianRARTput)
		}
		// §5.2: throttling is one-sided and write-driven; throughput
		// throttles far outnumber IOPS throttles.
		if !(r.WriteDriven > r.ReadDriven) {
			t.Errorf("%s: write-driven %v not above read-driven %v", r.Scope, r.WriteDriven, r.ReadDriven)
		}
		if !(r.Mixed < 0.3) {
			t.Errorf("%s: mixed fraction %v too high", r.Scope, r.Mixed)
		}
		if !(r.TputOverIOPS > 1) {
			t.Errorf("%s: tput/IOPS ratio %v not above 1", r.Scope, r.TputOverIOPS)
		}
		if r.Render() == "" {
			t.Fatal("empty render")
		}
	}
}

func TestFig3deShapes(t *testing.T) {
	s := study(t)
	r := s.Fig3deReduction()
	if len(r.Rates) != 4 {
		t.Fatalf("rates = %v", r.Rates)
	}
	// Reduction rate decreases monotonically with the lending rate.
	for i := 1; i < len(r.Rates); i++ {
		if !math.IsNaN(r.MedianRRTput[i]) && r.MedianRRTput[i] > r.MedianRRTput[i-1]+1e-9 {
			t.Errorf("RR tput not decreasing: %v", r.MedianRRTput)
		}
	}
	for i := range r.Rates {
		if !math.IsNaN(r.MedianRRTput[i]) && (r.MedianRRTput[i] <= 0 || r.MedianRRTput[i] > 1) {
			t.Errorf("RR outside (0,1]: %v", r.MedianRRTput[i])
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig3fgShapes(t *testing.T) {
	s := study(t)
	r := s.Fig3fgLendingGain(false)
	if r.Groups == 0 {
		t.Skip("no throttled groups")
	}
	// Lending yields positive gains for most groups at moderate rates, and
	// negative gains exist (the paper's §5.3 caution).
	if r.Rates[1] != 0.4 || !(r.PosFrac[1] > 0.5) {
		t.Errorf("positive fraction at p=%v = %v", r.Rates[1], r.PosFrac[1])
	}
	for i := range r.Rates {
		if r.PosFrac[i]+r.NegFrac[i] > 1+1e-9 {
			t.Errorf("fractions exceed 1 at p=%v", r.Rates[i])
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig4aShapes(t *testing.T) {
	s := study(t)
	r := s.Fig4aFrequentMigration()
	if len(r.WindowPeriods) != 3 {
		t.Fatalf("windows = %v", r.WindowPeriods)
	}
	// Larger windows catch at least as many frequent migrations.
	for i := 1; i < 3; i++ {
		a, b := r.MaxProp[i-1], r.MaxProp[i]
		if !math.IsNaN(a) && !math.IsNaN(b) && b < a-1e-9 {
			t.Errorf("max proportion not monotone in window: %v", r.MaxProp)
		}
	}
	for _, props := range r.Proportions {
		for _, p := range props {
			if p < 0 || p > 1 {
				t.Fatalf("proportion %v outside [0,1]", p)
			}
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig4bShapes(t *testing.T) {
	s := study(t)
	r := s.Fig4bImporterSelection()
	if len(r.Policies) != 5 {
		t.Fatalf("policies = %v", r.Policies)
	}
	idx := map[string]int{}
	for i, p := range r.Policies {
		idx[p] = i
	}
	// §6.1.2: the oracle importer keeps placements valid at least as long
	// as the production min-traffic heuristic.
	ideal, minT := r.MedianInterval[idx["ideal"]], r.MedianInterval[idx["min-traffic"]]
	if !math.IsNaN(ideal) && !math.IsNaN(minT) && ideal < minT*0.8 {
		t.Errorf("ideal interval %v well below min-traffic %v", ideal, minT)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig4cShapes(t *testing.T) {
	s := study(t)
	r := s.Fig4cPredictionMSE()
	if len(r.Methods) != 5 {
		t.Fatalf("methods = %v", r.Methods)
	}
	get := func(prefix string) float64 {
		for i, m := range r.Methods {
			if strings.HasPrefix(m, prefix) {
				return r.MeanNormMSE[i]
			}
		}
		t.Fatalf("method %s missing", prefix)
		return 0
	}
	// §6.1.3 orderings: per-period attention beats per-epoch attention;
	// ARIMA beats the linear fit.
	if !(get("P5") < get("P4")) {
		t.Errorf("per-period attention %v not below per-epoch %v", get("P5"), get("P4"))
	}
	if !(get("P2") < get("P1")) {
		t.Errorf("ARIMA %v not below linear %v", get("P2"), get("P1"))
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig5aShapes(t *testing.T) {
	s := study(t)
	r := s.Fig5aReadWriteCoV()
	if len(r.ReadCoV) == 0 {
		t.Fatal("no clusters measured")
	}
	// §6.2.1: read skew >= write skew for nearly all clusters.
	if !(r.FracAboveDiagonal > 0.7) {
		t.Errorf("above-diagonal fraction = %v", r.FracAboveDiagonal)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig5bShapes(t *testing.T) {
	s := study(t)
	r := s.Fig5bSegmentDominance()
	if len(r.MedianAbsWr) == 0 {
		t.Fatal("no clusters measured")
	}
	// §6.2.2: top-traffic segments are strongly one-sided.
	if !(r.FracAbove09 > 0.5) {
		t.Errorf("fraction of clusters above 0.9 = %v", r.FracAbove09)
	}
	for _, v := range r.MedianAbsWr {
		if v < 0 || v > 1 {
			t.Fatalf("|wr_ratio| %v outside [0,1]", v)
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig5cShapes(t *testing.T) {
	s := study(t)
	r := s.Fig5cWriteThenRead()
	// Write-then-read must not leave read balance worse, and must not
	// meaningfully hurt write balance (§6.2.2's surprise: it helps).
	if !(r.WTRReadCoV <= r.WriteOnlyReadCoV+0.05) {
		t.Errorf("WTR read CoV %v above write-only %v", r.WTRReadCoV, r.WriteOnlyReadCoV)
	}
	if !(r.WTRWriteCoV <= r.WriteOnlyWriteCoV+0.05) {
		t.Errorf("WTR write CoV %v above write-only %v", r.WTRWriteCoV, r.WriteOnlyWriteCoV)
	}
	if r.ReadMigs == 0 {
		t.Error("write-then-read produced no read migrations")
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig6Shapes(t *testing.T) {
	s := study(t)
	r := s.Fig6HottestBlocks(VDSampleOptions{MaxVDs: 24, MaxEventsPerVD: 6000})
	if r.VDs == 0 {
		t.Fatal("no study VDs")
	}
	for i := range r.BlockMiB {
		// §7.1: hottest-block access rate far exceeds its LBA share.
		if !(r.MedianAccessRate[i] > r.MedianBlockShare[i]) {
			t.Errorf("block %d MiB: access rate %v not above share %v",
				r.BlockMiB[i], r.MedianAccessRate[i], r.MedianBlockShare[i])
		}
		// §7.2: write-dominant hottest blocks outnumber read-dominant ones.
		if !(r.WriteDomFrac[i] > r.ReadDomFrac[i]) {
			t.Errorf("block %d MiB: write-dom %v not above read-dom %v",
				r.BlockMiB[i], r.WriteDomFrac[i], r.ReadDomFrac[i])
		}
		// §7.2: hot rate near 50% (temporal continuity).
		if !(r.MeanHotRate[i] > 0.25 && r.MeanHotRate[i] < 0.8) {
			t.Errorf("block %d MiB: hot rate %v far from 0.5", r.BlockMiB[i], r.MeanHotRate[i])
		}
	}
	// Access rate grows with block size.
	last := len(r.BlockMiB) - 1
	if !(r.MedianAccessRate[last] >= r.MedianAccessRate[0]) {
		t.Errorf("access rate not increasing with block size: %v", r.MedianAccessRate)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig7aShapes(t *testing.T) {
	s := study(t)
	r := s.Fig7aHitRatio(VDSampleOptions{MaxVDs: 16, MaxEventsPerVD: 6000})
	last := len(r.BlockMiB) - 1
	// §7.3.1: sequential-write hotspots make FIFO ~= LRU.
	for i := range r.BlockMiB {
		if math.Abs(r.FIFOMed[i]-r.LRUMed[i]) > 0.1 {
			t.Errorf("block %d MiB: FIFO %v vs LRU %v diverge", r.BlockMiB[i], r.FIFOMed[i], r.LRUMed[i])
		}
	}
	// Frozen cache catches up with (or passes) LRU at large blocks while
	// trailing at the smallest.
	if !(r.FCMed[last] > r.FCMed[0]) {
		t.Errorf("FC hit ratio not growing with block size: %v", r.FCMed)
	}
	if !(r.FCMed[last] > 0.8*r.LRUMed[last]) {
		t.Errorf("FC %v far below LRU %v at largest block", r.FCMed[last], r.LRUMed[last])
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig7bcShapes(t *testing.T) {
	s := study(t)
	r := s.Fig7bcLatencyGain(VDSampleOptions{MaxVDs: 16, MaxEventsPerVD: 5000})
	// CN-cache p0 gain is far stronger than BS-cache p0 gain (it skips the
	// whole storage cluster).
	if !math.IsNaN(r.CNWrite[0]) && !math.IsNaN(r.BSWrite[0]) {
		if !(r.CNWrite[0] < r.BSWrite[0]) {
			t.Errorf("CN p0 write gain %v not better than BS %v", r.CNWrite[0], r.BSWrite[0])
		}
	}
	// Gains are ratios in (0, ~1].
	for _, g := range [][3]float64{r.CNRead, r.CNWrite, r.BSRead, r.BSWrite} {
		for _, v := range g {
			if !math.IsNaN(v) && (v <= 0 || v > 1.2) {
				t.Errorf("gain %v outside plausible range", v)
			}
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig7dShapes(t *testing.T) {
	s := study(t)
	r := s.Fig7dSpaceUtilization()
	if len(r.BlockMiB) == 0 {
		t.Fatal("no block sizes")
	}
	for i := range r.BlockMiB {
		// §7.3.2: BS-cache provisions more evenly than CN-cache.
		if !math.IsNaN(r.CNSpread[i]) && !math.IsNaN(r.BSSpread[i]) {
			if !(r.CNSpread[i] > r.BSSpread[i]) {
				t.Errorf("block %d MiB: CN spread %v not above BS %v",
					r.BlockMiB[i], r.CNSpread[i], r.BSSpread[i])
			}
		}
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestClusterTrafficsConserveFleetTraffic(t *testing.T) {
	// Integration invariant: the per-cluster period matrices must sum to
	// exactly the fleet's total traffic (no segment lost or double-counted
	// in the renumbering).
	s := study(t)
	tt := s.ensureTotals()
	var want float64
	for vd := range s.Fleet.Topology.VDs {
		want += tt.vdRead[vd] + tt.vdWrite[vd]
	}
	var got float64
	var segs int
	for _, ct := range s.section6().clusters {
		segs += len(ct.Traffic)
		for _, rows := range ct.Traffic {
			for _, rw := range rows {
				got += rw.R + rw.W
			}
		}
	}
	if segs != len(s.Fleet.Topology.Segments) {
		t.Fatalf("clusters cover %d segments, want %d", segs, len(s.Fleet.Topology.Segments))
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("cluster traffic %v != fleet traffic %v", got, want)
	}
}

func TestStudyVDsStratified(t *testing.T) {
	s := study(t)
	vds := s.studyVDs(20)
	if len(vds) == 0 || len(vds) > 20 {
		t.Fatalf("studyVDs returned %d", len(vds))
	}
	seen := map[int32]bool{}
	for _, vd := range vds {
		if seen[int32(vd)] {
			t.Fatal("duplicate study VD")
		}
		seen[int32(vd)] = true
	}
}
