package ebs

import (
	"context"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
)

// TestRunShardMergeMatchesRun is the fabric's foundation: executing
// the run as VD-disjoint shards and merging the partials must reproduce the
// single-process dataset byte for byte, for several shard counts, including
// the full feature set (check mode, chaos, streaming sketches).
func TestRunShardMergeMatchesRun(t *testing.T) {
	f := smallFleet(t)
	mkOpts := func() (Options, *sketch.Set, *chaos.Stats) {
		stream := sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
		stats := &chaos.Stats{}
		return Options{
			DurationSec: 8, TraceSampleEvery: 4, EventSampleEvery: 2,
			MaxVDs: 16, Workers: 2, Check: true,
			Chaos:      &chaos.Plan{BSCrashes: 4, MeanDownSec: 3, FailoverPenaltyUS: 1500, Storms: 3, StormFactor: 4, MeanStormSec: 3},
			ChaosStats: stats, Stream: stream,
		}, stream, stats
	}

	refOpts, refStream, refStats := mkOpts()
	ref, err := New(f).Run(context.Background(), refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refFP := invariant.Fingerprint(ref)

	for _, nShards := range []int{1, 2, 3, 5} {
		opts, stream, stats := mkOpts()
		sim := New(f)
		plan := cluster.PlanShards(16, nShards)
		var parts []*ShardPartial
		for _, r := range plan {
			p, err := sim.RunShard(context.Background(), opts, r.Lo, r.Hi)
			if err != nil {
				t.Fatalf("shards=%d: RunShard%v: %v", nShards, r, err)
			}
			parts = append(parts, p)
		}
		ds, err := sim.MergeShards(opts, parts)
		if err != nil {
			t.Fatalf("shards=%d: MergeShards: %v", nShards, err)
		}
		if got := invariant.Fingerprint(ds); got != refFP {
			t.Fatalf("shards=%d: dataset fingerprint %s != single-process %s", nShards, got, refFP)
		}
		if stream.Fingerprint() != refStream.Fingerprint() {
			t.Fatalf("shards=%d: sketch fingerprint drifted", nShards)
		}
		if *stats != *refStats {
			t.Fatalf("shards=%d: chaos stats %+v != %+v", nShards, *stats, *refStats)
		}
	}
}

// TestObserveUnderShards: the control-plane observation is folded from the
// merged metric rows, so RunShard x k -> MergeShards with Observe set must
// fill it exactly as Run does, for any shard count — and RunShard itself
// must leave the destination alone.
func TestObserveUnderShards(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	opts := Options{
		DurationSec: 9, TraceSampleEvery: 4, EventSampleEvery: 2, MaxVDs: 16, Workers: 2,
		Chaos: &chaos.Plan{BSCrashes: 2, MeanDownSec: 3, Storms: 2, StormFactor: 4, MeanStormSec: 3},
	}
	shape, err := sim.ObsShapeFor(opts, 2) // five epochs, the last one short
	if err != nil {
		t.Fatal(err)
	}
	empty := control.NewObservation(shape).Fingerprint()

	refOpts := opts
	refOpts.Observe = control.NewObservation(shape)
	if _, err := sim.Run(context.Background(), refOpts); err != nil {
		t.Fatal(err)
	}
	want := refOpts.Observe.Fingerprint()
	if want == empty {
		t.Fatal("Run left the observation empty")
	}

	for _, k := range []int{1, 3, 8} {
		kOpts := opts
		kOpts.Observe = control.NewObservation(shape)
		var parts []*ShardPartial
		for _, r := range cluster.PlanShards(16, k) {
			p, err := sim.RunShard(context.Background(), kOpts, r.Lo, r.Hi)
			if err != nil {
				t.Fatalf("shards=%d: RunShard%v: %v", k, r, err)
			}
			parts = append(parts, p)
		}
		if kOpts.Observe.Fingerprint() != empty {
			t.Fatalf("shards=%d: RunShard wrote to Options.Observe", k)
		}
		if _, err := sim.MergeShards(kOpts, parts); err != nil {
			t.Fatalf("shards=%d: MergeShards: %v", k, err)
		}
		if got := kOpts.Observe.Fingerprint(); got != want {
			t.Fatalf("shards=%d: observation fingerprint %s != Run's %s", k, got, want)
		}
	}
}

// TestMergeShardsRejectsBadCoverage pins the merge's safety net: gaps,
// overlaps, and short coverage are errors, never a silently wrong dataset.
func TestMergeShardsRejectsBadCoverage(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	opts := Options{DurationSec: 4, TraceSampleEvery: 1, EventSampleEvery: 4, MaxVDs: 8}
	run := func(lo, hi int) *ShardPartial {
		p, err := sim.RunShard(context.Background(), opts, lo, hi)
		if err != nil {
			t.Fatalf("RunShard[%d,%d): %v", lo, hi, err)
		}
		return p
	}
	cases := []struct {
		name  string
		parts []*ShardPartial
	}{
		{"gap", []*ShardPartial{run(0, 3), run(5, 8)}},
		{"overlap", []*ShardPartial{run(0, 5), run(3, 8)}},
		{"short", []*ShardPartial{run(0, 5)}},
		{"duplicate", []*ShardPartial{run(0, 4), run(0, 4), run(4, 8)}},
	}
	for _, tc := range cases {
		if _, err := sim.MergeShards(opts, tc.parts); err == nil {
			t.Fatalf("%s coverage merged without error", tc.name)
		}
	}
	if _, err := sim.MergeShards(opts, []*ShardPartial{run(0, 4), run(4, 8)}); err != nil {
		t.Fatalf("exact coverage rejected: %v", err)
	}
	if _, err := sim.RunShard(context.Background(), opts, 6, 12); err == nil {
		t.Fatal("RunShard beyond MaxVDs succeeded")
	}
}
