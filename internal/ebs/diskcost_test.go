package ebs

import (
	"context"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/scenario"
)

// TestDiskCostsPredictEmission holds the dry-run cost the fabric plans its
// shards with to the traffic the run then emits: for every disk predicted to
// emit at least 1,000 IOs, check mode's emission count lies within ±2 % of
// DiskCosts, and the heaviest disk is the same on both sides — plain, under a
// fault plan whose storms boost heavy disks (ignoring the boost misses by
// 2x on some), and under a traffic-shaping scenario with a generator of its
// own.
func TestDiskCostsPredictEmission(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	shaped, err := scenario.BindSpec("batchburst,wave=3,width=1", f)
	if err != nil {
		t.Fatal(err)
	}
	arms := []struct {
		name string
		with func(*Options)
	}{
		{"plain", func(*Options) {}},
		{"storms", func(o *Options) {
			o.Chaos = &chaos.Plan{Storms: 40, StormFactor: 4, MeanStormSec: 5}
		}},
		{"batchburst", func(o *Options) { o.Scenario = shaped }},
	}
	for _, arm := range arms {
		opts := Options{DurationSec: 20, TraceSampleEvery: 3200, EventSampleEvery: 1, Workers: 2, Check: true}
		arm.with(&opts)
		costs, err := sim.DiskCosts(opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sim.RunShard(context.Background(), opts, 0, len(costs))
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
		if opts.Chaos != nil && p.Chaos.StormIOs == 0 {
			t.Fatalf("%s: no IO fell in a storm; the plan boosts nothing", arm.name)
		}
		var predicted, emitted uint64
		hotCost, hotEmit, checked := 0, 0, 0
		for vd, c := range costs {
			got := uint64(p.Emission[vd].Events)
			predicted += c
			emitted += got
			if c > costs[hotCost] {
				hotCost = vd
			}
			if p.Emission[vd].Events > p.Emission[hotEmit].Events {
				hotEmit = vd
			}
			if c < 1000 {
				continue
			}
			checked++
			if diff := float64(got) - float64(c); diff > 0.02*float64(c) || -diff > 0.02*float64(c) {
				t.Errorf("%s: VD %d emitted %d IOs, DiskCosts predicted %d (off by more than 2 %%)", arm.name, vd, got, c)
			}
		}
		t.Logf("%s: %d disks checked, %d predicted, %d emitted", arm.name, checked, predicted, emitted)
		if checked < 3 {
			t.Fatalf("%s: only %d disks predicted at >= 1000 IOs; the check means nothing", arm.name, checked)
		}
		if hotCost != hotEmit {
			t.Errorf("%s: heaviest disk by cost VD %d, by emission VD %d", arm.name, hotCost, hotEmit)
		}
	}
}
