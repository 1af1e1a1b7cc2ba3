package ebs

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"ebslab/internal/chaos"
)

func chaosPlan() *chaos.Plan {
	return &chaos.Plan{
		BSCrashes: 6, MeanDownSec: 3, FailoverPenaltyUS: 200,
		Storms: 4, StormFactor: 4, MeanStormSec: 3,
	}
}

func TestOptionsRejectInvalidChaosPlan(t *testing.T) {
	f := smallFleet(t)
	_, err := New(f).Run(context.Background(), Options{
		DurationSec: 4, MaxVDs: 4,
		Chaos: &chaos.Plan{FailoverPenaltyUS: math.NaN()},
	})
	if err == nil || !strings.Contains(err.Error(), "Options.Chaos") {
		t.Fatalf("invalid plan accepted: %v", err)
	}
}

func TestChaosStatsPopulated(t *testing.T) {
	f := smallFleet(t)
	var st chaos.Stats
	plan := chaosPlan()
	_, err := New(f).Run(context.Background(), Options{
		DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 4,
		Chaos: plan, ChaosStats: &st,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := plan.Expand(f.Cfg.Seed, chaos.Shape{
		BSs: f.Topology.StorageNodes, VDs: len(f.Topology.VDs), DurSec: 10,
	})
	if st.CrashWindows != len(sched.Crashes) || st.StormWindows != len(sched.Storms) {
		t.Fatalf("stats windows %+v disagree with the schedule (%d crashes, %d storms)",
			st, len(sched.Crashes), len(sched.Storms))
	}
	if st.FaultedIOs == 0 {
		t.Fatal("no IO ever hit a crashed BS; the plan exercises nothing")
	}
}

// TestChaosRunPassesCheckMode: a disruptive schedule must still satisfy
// every conservation law — chaos bends latency and demand, never the
// accounting.
func TestChaosRunPassesCheckMode(t *testing.T) {
	f := smallFleet(t)
	_, err := New(f).Run(context.Background(), Options{
		DurationSec: 8, TraceSampleEvery: 1, EventSampleEvery: 4, MaxVDs: 16,
		Workers: 3, Check: true, Chaos: chaosPlan(),
	})
	if err != nil {
		t.Fatalf("check mode under chaos: %v", err)
	}
}

// TestChaosWorkerCountInvarianceDataset extends the engine's determinism
// contract to chaos runs: byte-identical datasets at every worker count.
func TestChaosWorkerCountInvarianceDataset(t *testing.T) {
	f := smallFleet(t)
	base := Options{
		DurationSec: 8, TraceSampleEvery: 2, EventSampleEvery: 4, MaxVDs: 16,
		Chaos: chaosPlan(),
	}
	opts1 := base
	opts1.Workers = 1
	var st1 chaos.Stats
	opts1.ChaosStats = &st1
	ref, err := New(f).Run(context.Background(), opts1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		opts := base
		opts.Workers = workers
		var st chaos.Stats
		opts.ChaosStats = &st
		got, err := New(f).Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Trace, got.Trace) {
			t.Fatalf("workers=%d: chaos trace differs from 1-worker run", workers)
		}
		if st != st1 {
			t.Fatalf("workers=%d: fault accounting %+v != %+v", workers, st, st1)
		}
	}
}

// TestChaosPenaltyOnlyRaisesLatency: with a penalty but no storms, the
// chaos run must contain exactly the fault-free records except for
// frontend-net latency on faulted IOs.
func TestChaosPenaltyOnlyRaisesLatency(t *testing.T) {
	f := smallFleet(t)
	base := Options{DurationSec: 8, TraceSampleEvery: 1, EventSampleEvery: 4, MaxVDs: 16, Workers: 2}
	clean, err := New(f).Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	var st chaos.Stats
	opts.Chaos = &chaos.Plan{BSCrashes: 8, MeanDownSec: 3, FailoverPenaltyUS: 500}
	opts.ChaosStats = &st
	faulted, err := New(f).Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultedIOs == 0 {
		t.Fatal("penalty plan faulted nothing")
	}
	if len(clean.Trace) != len(faulted.Trace) {
		t.Fatalf("record counts differ: %d vs %d", len(clean.Trace), len(faulted.Trace))
	}
	var raised int64
	for i := range clean.Trace {
		a, b := &clean.Trace[i], &faulted.Trace[i]
		if a.TraceID != b.TraceID || a.TimeUS != b.TimeUS || a.VD != b.VD ||
			a.Op != b.Op || a.Size != b.Size || a.Offset != b.Offset {
			t.Fatalf("record %d: identity fields changed under a penalty-only plan", i)
		}
		// Latencies are float32s, so the +500us penalty lands with rounding.
		switch d := b.TotalLatency() - a.TotalLatency(); {
		case d == 0:
		case d > 499 && d < 501:
			raised++
		default:
			t.Fatalf("record %d: latency moved by %v, want 0 or the 500us penalty", i, d)
		}
	}
	if raised != st.FaultedIOs {
		t.Fatalf("%d records paid the penalty but %d IOs were faulted", raised, st.FaultedIOs)
	}
}
