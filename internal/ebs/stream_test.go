package ebs

import (
	"context"
	"math"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
)

// streamRun executes one streamed simulation and returns the merged sketch
// set.
func streamRun(t *testing.T, s *Sim, opts Options) *sketch.Set {
	t.Helper()
	set := sketch.NewSet(sketch.Config{})
	opts.Stream = set
	if _, err := s.Run(context.Background(), opts); err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	return set
}

// TestStreamWorkerCountInvariance is the subsystem's acceptance contract:
// the merged sketch fingerprint must be identical for Workers=1, 2, and 8
// on the same seed — with and without an active chaos plan.
func TestStreamWorkerCountInvariance(t *testing.T) {
	f := smallFleet(t)
	s := New(f)
	for name, plan := range map[string]*chaos.Plan{
		"fault-free": nil,
		"chaos": {
			BSCrashes: 4, MeanDownSec: 3, FailoverPenaltyUS: 150,
			Storms: 3, StormFactor: 4, MeanStormSec: 3,
		},
	} {
		t.Run(name, func(t *testing.T) {
			rep := &invariant.Report{}
			invariant.CheckSketchDeterminism(rep, func(workers int) (*sketch.Set, error) {
				set := sketch.NewSet(sketch.Config{})
				_, err := s.Run(context.Background(), Options{
					DurationSec: 8, TraceSampleEvery: 4, EventSampleEvery: 2,
					MaxVDs: 16, Workers: workers, Chaos: plan, Stream: set,
				})
				return set, err
			}, 1, 2, 8)
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamIndependentOfTraceSampling: the sketches ingest every simulated
// IO regardless of the DiTing trace sampling rate, so thinning the trace
// must not move the sketch state at all.
func TestStreamIndependentOfTraceSampling(t *testing.T) {
	f := smallFleet(t)
	s := New(f)
	base := Options{DurationSec: 6, EventSampleEvery: 2, MaxVDs: 12, Workers: 2}
	full := base
	full.TraceSampleEvery = 1
	thin := base
	thin.TraceSampleEvery = 64
	a := streamRun(t, s, full)
	b := streamRun(t, s, thin)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("sketch state depends on the trace sampling rate")
	}
}

// TestStreamConservationUnderCheck runs the streamed path with the full
// invariant suite on: the sketch conservation law must hold against both
// the per-shard totals and the workload layer's emission accounting.
func TestStreamConservationUnderCheck(t *testing.T) {
	f := smallFleet(t)
	set := sketch.NewSet(sketch.Config{})
	ds, err := New(f).Run(context.Background(), Options{
		DurationSec: 6, TraceSampleEvery: 2, EventSampleEvery: 2,
		MaxVDs: 12, Workers: 3, Check: true, Stream: set,
	})
	if err != nil {
		t.Fatalf("check-mode streamed run: %v", err)
	}
	if len(ds.Trace) == 0 || set.Totals().IOs == 0 {
		t.Fatal("streamed run produced no data")
	}
}

// relErr returns |got-want|/|want| (infinity when want is 0 and got isn't).
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestSketchAccuracySmoke is the calibrated exact-vs-streamed gate, run by
// `go test ./internal/ebs`: one run produces both views of the same IO
// stream (full trace retained for the exact batch path, sketches for the
// streamed path), and the streamed metrics must sit inside the documented
// error bounds.
func TestSketchAccuracySmoke(t *testing.T) {
	f := smallFleet(t)
	set := sketch.NewSet(sketch.Config{})
	ds, err := New(f).Run(context.Background(), Options{
		DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 1,
		MaxVDs: 24, Workers: 4, Stream: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	exact := sketch.ExactSkewness(ds, set.Config())
	got := set.Skewness()

	// Counting metrics are exact by construction: integer sketch counters
	// against integer-valued float row sums.
	for _, c := range []struct {
		name      string
		got, want float64
		bound     float64
	}{
		{"CCR1", got.CCR1, exact.CCR1, 1e-9},
		{"CCR10", got.CCR10, exact.CCR10, 1e-9},
		{"NormCoV", got.NormCoV, exact.NormCoV, 1e-9},
		{"P2ARead", got.P2ARead, exact.P2ARead, 1e-9},
		{"P2AWrite", got.P2AWrite, exact.P2AWrite, 1e-9},
		{"P2ATotal", got.P2ATotal, exact.P2ATotal, 1e-9},
		{"WrRatio", got.WrRatio, exact.WrRatio, 1e-9},
		{"MeanRAR", got.MeanRAR, exact.MeanRAR, 1e-9},
		{"EWMA", got.EWMABps, exact.EWMABps, 1e-9},
		{"Bytes", got.Bytes, exact.Bytes, 1e-9},
		// Quantile sketches carry alpha=1% bucket error; gate at 2%.
		{"LatencyP50", got.LatencyP50, exact.LatencyP50, 0.02},
		{"LatencyP99", got.LatencyP99, exact.LatencyP99, 0.02},
		{"SizeP50", got.SizeP50, exact.SizeP50, 0.02},
		{"SizeP99", got.SizeP99, exact.SizeP99, 0.02},
		// HLL at p=12 has ~1.6% standard error; gate at 10%.
		{"ActiveBlocks", got.ActiveBlocks, exact.ActiveBlocks, 0.10},
		{"ActiveSegments", got.ActiveSegments, exact.ActiveSegments, 0.10},
	} {
		if math.IsNaN(c.want) {
			t.Fatalf("%s: exact value is NaN", c.name)
		}
		if re := relErr(c.got, c.want); re > c.bound {
			t.Errorf("%s: streamed %.6g vs exact %.6g, rel err %.4g > %.4g",
				c.name, c.got, c.want, re, c.bound)
		}
	}

	// Top-K agreement: at least 90% of the exact heavy hitters retained.
	if ov := sketch.Overlap(exact.HotVDs, got.HotVDs); ov < 0.9 {
		t.Errorf("hot-VD overlap %.2f < 0.9", ov)
	}
	if ov := sketch.Overlap(exact.HotSegments, got.HotSegments); ov < 0.9 {
		t.Errorf("hot-segment overlap %.2f < 0.9", ov)
	}
	if got.IOs != exact.IOs {
		t.Errorf("IOs %d != exact %d", got.IOs, exact.IOs)
	}
}
