package balancer

import (
	"math"
	"math/rand"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/stats"
)

// skewedScenario builds 4 BSs and 16 segments, where segments 0..3 (on BS 0)
// are hot writers and everything else is cold; traffic is stable over
// periods.
func skewedScenario(nPeriods int) (*cluster.SegmentMap, [][]RW) {
	m := cluster.NewSegmentMap(16, 4)
	for seg := 0; seg < 16; seg++ {
		m.Assign(cluster.SegmentID(seg), cluster.StorageNodeID(seg/4))
	}
	traffic := make([][]RW, 16)
	for seg := range traffic {
		traffic[seg] = make([]RW, nPeriods)
		for p := range traffic[seg] {
			if seg < 4 {
				traffic[seg][p] = RW{W: 100, R: 5}
			} else {
				traffic[seg][p] = RW{W: 10, R: 5}
			}
		}
	}
	return m, traffic
}

func TestRunBalancesStableSkew(t *testing.T) {
	m, traffic := skewedScenario(12)
	res := Run(m, traffic, MinTrafficPolicy{}, DefaultConfig())
	if len(res.Migrations) == 0 {
		t.Fatal("no migrations despite a 4x hot BS")
	}
	first, last := res.WriteCoV[0], res.WriteCoV[len(res.WriteCoV)-1]
	if !(last < first) {
		t.Fatalf("write CoV did not improve: %v -> %v", first, last)
	}
}

func TestRunDoesNotMutateInputPlacement(t *testing.T) {
	m, traffic := skewedScenario(6)
	before := make([]cluster.StorageNodeID, m.Len())
	for i := range before {
		before[i] = m.BSOf(cluster.SegmentID(i))
	}
	Run(m, traffic, MinTrafficPolicy{}, DefaultConfig())
	for i := range before {
		if m.BSOf(cluster.SegmentID(i)) != before[i] {
			t.Fatal("Run mutated the caller's placement")
		}
	}
}

func TestRunNoMigrationWhenBalanced(t *testing.T) {
	m := cluster.NewSegmentMap(4, 4)
	traffic := make([][]RW, 4)
	for seg := 0; seg < 4; seg++ {
		m.Assign(cluster.SegmentID(seg), cluster.StorageNodeID(seg))
		traffic[seg] = []RW{{W: 50}, {W: 50}}
	}
	res := Run(m, traffic, MinTrafficPolicy{}, DefaultConfig())
	if len(res.Migrations) != 0 {
		t.Fatalf("balanced cluster migrated %d segments", len(res.Migrations))
	}
}

func TestRunPanicsOnMismatch(t *testing.T) {
	m := cluster.NewSegmentMap(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched traffic matrix should panic")
		}
	}()
	Run(m, make([][]RW, 3), MinTrafficPolicy{}, DefaultConfig())
}

func TestWriteThenReadBalancesRead(t *testing.T) {
	// Writes are balanced; reads are concentrated on BS 0. Write-only must
	// leave the read skew alone; write-then-read must fix it.
	m := cluster.NewSegmentMap(8, 4)
	traffic := make([][]RW, 8)
	const nPeriods = 10
	for seg := 0; seg < 8; seg++ {
		m.Assign(cluster.SegmentID(seg), cluster.StorageNodeID(seg/2))
		traffic[seg] = make([]RW, nPeriods)
		for p := 0; p < nPeriods; p++ {
			traffic[seg][p] = RW{W: 20}
			if seg < 2 {
				traffic[seg][p].R = 200 // read-hot segments on BS 0
			} else {
				traffic[seg][p].R = 1
			}
		}
	}
	cfgW := DefaultConfig()
	resW := Run(m, traffic, MinTrafficPolicy{}, cfgW)
	cfgWR := DefaultConfig()
	cfgWR.Mode = WriteThenRead
	resWR := Run(m, traffic, MinTrafficPolicy{}, cfgWR)

	lastReadW := resW.ReadCoV[nPeriods-1]
	lastReadWR := resWR.ReadCoV[nPeriods-1]
	if !(lastReadWR < lastReadW) {
		t.Fatalf("write-then-read read CoV %v not below write-only %v", lastReadWR, lastReadW)
	}
	w, r := MigrationCount(resWR.Migrations)
	if r == 0 {
		t.Fatal("write-then-read produced no read migrations")
	}
	if w2, r2 := MigrationCount(resW.Migrations); r2 != 0 || w2 != len(resW.Migrations) {
		t.Fatal("write-only produced read migrations")
	}
	_ = w
}

func TestPoliciesReturnValidImporter(t *testing.T) {
	hist := [][]float64{{10, 20}, {5, 1}, {7, 30}, {2, 2}}
	policies := []ImporterPolicy{
		&RandomPolicy{Rng: rand.New(rand.NewSource(1))},
		MinTrafficPolicy{},
		MinVariancePolicy{},
		LunulePolicy{Window: 2},
		OraclePolicy{},
	}
	for _, p := range policies {
		got := p.Select(hist, 1, 0)
		if got < 0 || int(got) >= len(hist) || got == 0 {
			t.Errorf("%s selected %d", p.Name(), got)
		}
		if p.Name() == "" {
			t.Errorf("%T empty name", p)
		}
	}
}

func TestMinTrafficPicksColdest(t *testing.T) {
	hist := [][]float64{{10}, {1}, {5}}
	if got := (MinTrafficPolicy{}).Select(hist, 0, 2); got != 1 {
		t.Fatalf("min-traffic picked %d, want 1", got)
	}
	// Excluding the coldest falls back to next.
	if got := (MinTrafficPolicy{}).Select(hist, 0, 1); got != 2 {
		t.Fatalf("min-traffic with exclusion picked %d, want 2", got)
	}
}

func TestRandomPolicyExcludes(t *testing.T) {
	p := &RandomPolicy{Rng: rand.New(rand.NewSource(7))}
	hist := [][]float64{{1}, {1}}
	for i := 0; i < 50; i++ {
		if got := p.Select(hist, 0, 0); got != 1 {
			t.Fatalf("random returned excluded BS")
		}
	}
	if got := p.Select([][]float64{{1}}, 0, 0); got != -1 {
		t.Fatalf("random on single-BS cluster = %d, want -1", got)
	}
}

func TestMinVarianceIgnoresLevel(t *testing.T) {
	// BS 0: high but steady. BS 1: low but volatile.
	hist := [][]float64{{100, 100, 100}, {0, 90, 0}}
	if got := (MinVariancePolicy{}).Select(hist, 2, -1); got != 0 {
		t.Fatalf("min-variance picked %d, want steady BS 0", got)
	}
}

func TestLunuleExtrapolates(t *testing.T) {
	// BS 0 is rising fast (low now, high next); BS 1 is falling.
	hist := [][]float64{{0, 10, 20, 30}, {60, 50, 40, 35}}
	got := (LunulePolicy{Window: 4}).Select(hist, 3, -1)
	if got != 1 {
		t.Fatalf("lunule picked %d, want falling BS 1", got)
	}
	// MinTraffic would pick BS 0 (30 < 35) — the policies must differ here.
	mt := (MinTrafficPolicy{}).Select(hist, 3, -1)
	if mt != 0 {
		t.Fatalf("min-traffic picked %d, want 0", mt)
	}
}

func TestFrequentMigrationProportion(t *testing.T) {
	// BS 1 both imports (period 0) and exports (period 1) inside a 2-period
	// window: all three migrations touch it, so all are frequent.
	migs := []Migration{
		{Period: 0, Seg: 0, From: 0, To: 1},
		{Period: 1, Seg: 0, From: 1, To: 2},
		{Period: 1, Seg: 1, From: 1, To: 2},
	}
	got := FrequentMigrationProportion(migs, 3, 2)
	if got != 1 {
		t.Fatalf("proportion = %v, want 1", got)
	}
	// With 1-period windows, period 0's import and period 1's exports no
	// longer coincide, so nothing is frequent.
	got = FrequentMigrationProportion(migs, 3, 1)
	if got != 0 {
		t.Fatalf("proportion = %v, want 0", got)
	}
	if !math.IsNaN(FrequentMigrationProportion(nil, 3, 2)) {
		t.Fatal("empty migration list should be NaN")
	}
}

func TestOutMigrationIntervals(t *testing.T) {
	migs := []Migration{
		{Period: 0, From: 0, To: 1},
		{Period: 4, From: 0, To: 2},
		{Period: 6, From: 0, To: 1},
		{Period: 3, From: 1, To: 0},
	}
	got := OutMigrationIntervals(migs, 10)
	if len(got) != 2 {
		t.Fatalf("intervals = %v, want 2 entries", got)
	}
	// Intervals for BS 0: (4-0)/10 and (6-4)/10.
	want := map[float64]bool{0.4: true, 0.2: true}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected interval %v", v)
		}
	}
	if OutMigrationIntervals(migs, 0) != nil {
		t.Fatal("zero periods should yield nil")
	}
}

func TestBSFutureMatrix(t *testing.T) {
	m := cluster.NewSegmentMap(2, 2)
	m.Assign(0, 0)
	m.Assign(1, 1)
	traffic := [][]RW{
		{{W: 5, R: 1}, {W: 7, R: 2}},
		{{W: 3, R: 9}, {W: 4, R: 8}},
	}
	got := BSFutureMatrix(m, traffic, func(x RW) float64 { return x.W })
	if got[0][0] != 5 || got[0][1] != 7 || got[1][0] != 3 || got[1][1] != 4 {
		t.Fatalf("future matrix = %v", got)
	}
}

func TestIdealBeatsMinTrafficOnVolatileTraffic(t *testing.T) {
	// Construct volatility where the coldest-now BS becomes the hottest
	// next period (rotating hotspot): Ideal should migrate less often after
	// placement stabilizes, or at least achieve no worse balance.
	rng := rand.New(rand.NewSource(5))
	const nSegs, nBS, nPeriods = 24, 4, 40
	m := cluster.NewSegmentMap(nSegs, nBS)
	for s := 0; s < nSegs; s++ {
		m.Assign(cluster.SegmentID(s), cluster.StorageNodeID(s%nBS))
	}
	traffic := make([][]RW, nSegs)
	for s := range traffic {
		traffic[s] = make([]RW, nPeriods)
		for p := range traffic[s] {
			base := 5 + rng.Float64()
			// Rotating burst: a different quarter of segments is hot each
			// period.
			if (p+s)%8 == 0 {
				base += 120
			}
			traffic[s][p] = RW{W: base}
		}
	}
	resIdeal := Run(m, traffic, OraclePolicy{}, DefaultConfig())
	resMin := Run(m, traffic, MinTrafficPolicy{}, DefaultConfig())

	intIdeal := stats.Median(OutMigrationIntervals(resIdeal.Migrations, nPeriods))
	intMin := stats.Median(OutMigrationIntervals(resMin.Migrations, nPeriods))
	if !math.IsNaN(intIdeal) && !math.IsNaN(intMin) && intIdeal < intMin*0.5 {
		t.Fatalf("ideal intervals %v far below min-traffic %v", intIdeal, intMin)
	}
}
