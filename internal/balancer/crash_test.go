package balancer

import (
	"math/rand"
	"reflect"
	"testing"

	"ebslab/internal/cluster"
)

// crashWindow marks one BS down for a period range [from, to).
func crashWindow(bs cluster.StorageNodeID, from, to int) DownFn {
	return func(p int, b cluster.StorageNodeID) bool {
		return b == bs && p >= from && p < to
	}
}

// TestRunIsRunWithFailuresNilDown: Run is the nil-schedule case of the one
// period loop, and a nil schedule is a schedule under which nothing crashes —
// the nil masks and the all-false masks must agree field for field.
func TestRunIsRunWithFailuresNilDown(t *testing.T) {
	m, traffic := skewedScenario(10)
	for _, cfg := range []Config{DefaultConfig(), {Mode: WriteThenRead, PeriodSec: 5}} {
		want := Run(m, traffic, MinTrafficPolicy{}, cfg)
		if len(want.Migrations) == 0 {
			t.Fatal("fixture produced no migrations; the comparison would be vacuous")
		}
		nilDown := RunWithFailures(m, traffic, MinTrafficPolicy{}, cfg,
			nil, FailoverRandom, rand.New(rand.NewSource(1)))
		neverDown := RunWithFailures(m, traffic, MinTrafficPolicy{}, cfg,
			func(int, cluster.StorageNodeID) bool { return false }, FailoverGreedy, nil)
		for name, got := range map[string]Result{"nil down": nilDown, "never-down schedule": neverDown} {
			if !reflect.DeepEqual(got.Migrations, want.Migrations) ||
				!reflect.DeepEqual(got.WriteCoV, want.WriteCoV) ||
				!reflect.DeepEqual(got.ReadCoV, want.ReadCoV) {
				t.Errorf("%s, %v: RunWithFailures differs from Run", name, cfg.Mode)
			}
		}
	}
}

// TestCrashWindowEvacuatesAndExcludes is the failover contract: the window
// opening evacuates the casualty, no migration lands on it while it is
// down, and recovery re-admits it as an importer.
func TestCrashWindowEvacuatesAndExcludes(t *testing.T) {
	const nPeriods, winFrom, winTo = 12, 3, 6
	m, traffic := skewedScenario(nPeriods)
	down := crashWindow(0, winFrom, winTo)
	res := RunWithFailures(m, traffic, MinTrafficPolicy{}, DefaultConfig(),
		down, FailoverGreedy, rand.New(rand.NewSource(1)))

	var evacuated, readmitted int
	for _, mig := range res.Migrations {
		inWindow := mig.Period >= winFrom && mig.Period < winTo
		if mig.Failover {
			if mig.Period != winFrom {
				t.Fatalf("failover migration outside the window-open period: %+v", mig)
			}
			if mig.From != 0 {
				t.Fatalf("failover evacuated the wrong BS: %+v", mig)
			}
			if mig.To == 0 {
				t.Fatalf("failover landed a segment back on the casualty: %+v", mig)
			}
			evacuated++
		}
		if inWindow {
			if mig.To == 0 {
				t.Fatalf("migration targeted the dead BS inside its window: %+v", mig)
			}
			if !mig.Failover && mig.From == 0 {
				t.Fatalf("the dead BS exported inside its window: %+v", mig)
			}
		}
		if mig.Period >= winTo && mig.To == 0 {
			readmitted++
		}
	}
	if evacuated == 0 {
		t.Fatal("window open evacuated nothing despite hosted segments")
	}
	if readmitted == 0 {
		t.Fatal("recovered BS was never re-admitted as an importer")
	}
}

// TestOverlappingCrashesNeverCrossContaminate: with two BSs down at once,
// neither evacuation may land segments on the other casualty.
func TestOverlappingCrashesNeverCrossContaminate(t *testing.T) {
	m, traffic := skewedScenario(8)
	isDown := func(p int, b cluster.StorageNodeID) bool {
		switch b {
		case 0:
			return p >= 2 && p < 6
		case 1:
			return p >= 3 && p < 5
		}
		return false
	}
	res := RunWithFailures(m, traffic, MinTrafficPolicy{}, DefaultConfig(),
		isDown, FailoverGreedy, rand.New(rand.NewSource(1)))
	var failovers int
	for _, mig := range res.Migrations {
		if isDown(mig.Period, mig.To) {
			t.Fatalf("migration landed on a BS that was down at the time: %+v", mig)
		}
		if mig.Failover {
			failovers++
		}
	}
	if failovers == 0 {
		t.Fatal("no failover migrations recorded for two crash windows")
	}
	// The second casualty (BS 1) must have been evacuated too, and never
	// onto BS 0, which was already down when BS 1's window opened.
	var bs1Evacuated bool
	for _, mig := range res.Migrations {
		if mig.Failover && mig.From == 1 {
			bs1Evacuated = true
			if mig.To == 0 {
				t.Fatalf("BS 1's evacuation landed on the already-down BS 0: %+v", mig)
			}
		}
	}
	if !bs1Evacuated {
		t.Fatal("BS 1 was never evacuated")
	}
}

// TestFailoverExcludingBarsExtraCasualties: the plain Failover path with an
// exclusion set must never pick an excluded survivor, and the nil exclusion
// must reproduce Failover exactly.
func TestFailoverExcludingBarsExtraCasualties(t *testing.T) {
	m, traffic := skewedScenario(4)
	a := m.Clone()
	b := m.Clone()
	rngA := rand.New(rand.NewSource(3))
	rngB := rand.New(rand.NewSource(3))
	resA := Failover(a, traffic, 0, 0, FailoverGreedy, rngA)
	resB := FailoverExcluding(b, traffic, 0, 0, FailoverGreedy, rngB, nil)
	if !reflect.DeepEqual(resA, resB) {
		t.Fatal("nil exclusion diverged from plain Failover")
	}

	c := m.Clone()
	FailoverExcluding(c, traffic, 0, 0, FailoverGreedy, rand.New(rand.NewSource(3)),
		func(id cluster.StorageNodeID) bool { return id == 1 })
	for _, seg := range c.SegmentsOn(1) {
		if m.BSOf(seg) != 1 {
			t.Fatalf("segment %d landed on the excluded BS 1", seg)
		}
	}
}
