package ebs

import (
	"context"
	"testing"

	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

func smallFleet(t *testing.T) *workload.Fleet {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NodesPerDC = 6
	cfg.DCs = 2
	cfg.BSPerDC = 3
	cfg.BSPerCluster = 3
	cfg.Users = 10
	cfg.DurationSec = 20
	f, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return f
}

func TestRunProducesConsistentDataset(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	ds, err := sim.Run(context.Background(), Options{DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 4, MaxVDs: 12})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ds.Trace) == 0 {
		t.Fatal("no trace records")
	}
	if len(ds.Compute) == 0 || len(ds.Storage) == 0 {
		t.Fatal("missing metric rows")
	}
	top := f.Topology
	for i := range ds.Trace {
		r := &ds.Trace[i]
		if int(r.VD) >= 12 {
			t.Fatalf("record for VD %d beyond MaxVDs", r.VD)
		}
		// Path coherence: the record's entities must agree with topology.
		if top.VDs[r.VD].VM != r.VM || top.VMs[r.VM].Node != r.Node {
			t.Fatalf("incoherent path in record %+v", r)
		}
		if top.Segments[r.Segment].VD != r.VD {
			t.Fatalf("record's segment belongs to another VD: %+v", r)
		}
		if f.Seg2BS.BSOf(r.Segment) != r.Storage {
			t.Fatalf("record storage node mismatch: %+v", r)
		}
		if r.TimeUS < 0 || r.TimeUS >= 10*1_000_000 {
			t.Fatalf("record outside window: %+v", r)
		}
		if r.TotalLatency() <= 0 {
			t.Fatalf("non-positive latency: %+v", r)
		}
		if int(r.WT) >= top.Nodes[r.Node].WorkerNum {
			t.Fatalf("record WT %d out of range for node with %d WTs", r.WT, top.Nodes[r.Node].WorkerNum)
		}
	}
	if len(ds.VDSpecs) != len(top.VDs) || len(ds.VMSpecs) != len(top.VMs) {
		t.Fatal("spec data incomplete")
	}
}

func TestRunDeterministicTraceCount(t *testing.T) {
	f := smallFleet(t)
	a, err := New(f).Run(context.Background(), Options{DurationSec: 6, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(f).Run(context.Background(), Options{DurationSec: 6, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace counts differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			t.Fatalf("record %d differs between identical runs", i)
		}
	}
}

func TestEventSamplingScalesMetrics(t *testing.T) {
	f := smallFleet(t)
	full, err := New(f).Run(context.Background(), Options{DurationSec: 6, TraceSampleEvery: 1, EventSampleEvery: 1, MaxVDs: 4})
	if err != nil {
		t.Fatal(err)
	}
	thin, err := New(f).Run(context.Background(), Options{DurationSec: 6, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(rows []trace.MetricRow) float64 {
		var s float64
		for i := range rows {
			s += rows[i].Bps()
		}
		return s
	}
	fs, ts := sum(full.Compute), sum(thin.Compute)
	if fs == 0 || ts == 0 {
		t.Skip("window too quiet to compare")
	}
	ratio := ts / fs
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("scaled thin-run traffic %v not within 3x of full-run %v", ts, fs)
	}
}

func TestThrottleAddsQueueDelay(t *testing.T) {
	f := smallFleet(t)
	// Force a tiny cap on VD 0 so it throttles hard.
	f.Topology.VDs[0].ThroughputCap = 1
	f.Topology.VDs[0].IOPSCap = 1

	with, err := New(f).Run(context.Background(), Options{DurationSec: 6, TraceSampleEvery: 1, MaxVDs: 1})
	if err != nil {
		t.Fatal(err)
	}
	without, err := New(f).Run(context.Background(), Options{DurationSec: 6, TraceSampleEvery: 1, MaxVDs: 1, DisableThrottle: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.Trace) == 0 {
		t.Skip("VD 0 idle in window")
	}
	var sumWith, sumWithout float64
	for i := range with.Trace {
		sumWith += float64(with.Trace[i].Latency[trace.StageComputeNode])
	}
	for i := range without.Trace {
		sumWithout += float64(without.Trace[i].Latency[trace.StageComputeNode])
	}
	if !(sumWith > sumWithout) {
		t.Fatalf("throttled run CN latency %v not above unthrottled %v", sumWith, sumWithout)
	}
}
