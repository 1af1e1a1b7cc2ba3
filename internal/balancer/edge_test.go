package balancer

import (
	"math"
	"math/rand"
	"testing"

	"ebslab/internal/cluster"
)

// Edge cases of importer selection and failover when no candidate exists:
// every policy must report "no importer" as -1 rather than pick the
// exporter, Run must tolerate the -1, and Failover must survive losing the
// only BlockServer.

// TestPoliciesReturnNoImporterWhenAllExcluded: with one BS the exporter is
// the only candidate, so every policy must decline to select.
func TestPoliciesReturnNoImporterWhenAllExcluded(t *testing.T) {
	hist := [][]float64{{10, 20, 30}}
	policies := []ImporterPolicy{
		&RandomPolicy{Rng: rand.New(rand.NewSource(1))},
		MinTrafficPolicy{},
		MinVariancePolicy{},
		LunulePolicy{Window: 2},
		OraclePolicy{},
	}
	for _, p := range policies {
		if got := p.Select(hist, 2, 0); got != -1 {
			t.Errorf("%s: selected %d with every candidate excluded, want -1", p.Name(), got)
		}
	}
}

// TestOracleSelectPlacedAllExcluded covers the placement-aware path of the
// same degenerate cluster.
func TestOracleSelectPlacedAllExcluded(t *testing.T) {
	m := cluster.NewSegmentMap(3, 1)
	for seg := 0; seg < 3; seg++ {
		m.Assign(cluster.SegmentID(seg), 0)
	}
	traffic := [][]RW{{{W: 10}, {W: 20}}, {{W: 5}, {W: 5}}, {{W: 1}, {W: 2}}}
	if got := (OraclePolicy{}).SelectPlaced(m, traffic, 0, false, 0); got != -1 {
		t.Fatalf("SelectPlaced picked %d on a single-BS cluster, want -1", got)
	}
}

// TestRunToleratesNoImporter: a single-BS cluster with wildly skewed
// segments gives the exporter nowhere to send load; Run must finish with an
// empty migration log instead of moving segments onto their own server.
func TestRunToleratesNoImporter(t *testing.T) {
	const nSegs, nPeriods = 8, 4
	m := cluster.NewSegmentMap(nSegs, 1)
	traffic := make([][]RW, nSegs)
	for seg := 0; seg < nSegs; seg++ {
		m.Assign(cluster.SegmentID(seg), 0)
		traffic[seg] = make([]RW, nPeriods)
		for p := range traffic[seg] {
			traffic[seg][p] = RW{W: 1000 * float64(1+seg)}
		}
	}
	res := Run(m, traffic, MinTrafficPolicy{}, DefaultConfig())
	if len(res.Migrations) != 0 {
		t.Fatalf("single-BS run produced %d migrations", len(res.Migrations))
	}
	if len(res.WriteCoV) != nPeriods {
		t.Fatalf("missing per-period CoVs: %d, want %d", len(res.WriteCoV), nPeriods)
	}
}

// TestFailoverNoSurvivors: losing the only BlockServer re-homes nothing and
// reports the after-state as undefined (NaN), leaving the placement intact.
func TestFailoverNoSurvivors(t *testing.T) {
	m := cluster.NewSegmentMap(3, 1)
	for seg := 0; seg < 3; seg++ {
		m.Assign(cluster.SegmentID(seg), 0)
	}
	traffic := [][]RW{{{W: 10}}, {{W: 20}}, {{W: 30}}}
	res := Failover(m, traffic, 0, 0, FailoverGreedy, rand.New(rand.NewSource(1)))
	if res.Moved != 0 {
		t.Fatalf("moved %d segments with no survivors", res.Moved)
	}
	if !math.IsNaN(res.CoVAfter) || !math.IsNaN(res.MaxOverload) {
		t.Fatalf("no-survivor CoV/overload not NaN: %+v", res)
	}
	for seg := 0; seg < 3; seg++ {
		if m.BSOf(cluster.SegmentID(seg)) != 0 {
			t.Fatalf("segment %d re-homed off a failed cluster with no survivors", seg)
		}
	}
}
