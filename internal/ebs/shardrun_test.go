package ebs

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
	"ebslab/internal/trace"
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

// TestUnmergedShardsMatchRun holds the one-merge argument: a shard ships its
// tracers' chunks as they were emitted — nothing merged, per-disk runs in
// emission order, several tracers' worth under in-shard Workers > 1 — and
// MergeShards' single merge still yields Run's dataset, sketch state and
// chaos accounting, for every in-shard worker count, shard plan and hand-over
// order, streaming or not, and under check mode. MergeShards only reads the
// chunks; Release ends the loan (the next RunShard refills the same pooled
// chunks, which the race detector would catch a late reader of).
func TestUnmergedShardsMatchRun(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	mkOpts := func(stream, check bool) (Options, *chaos.Stats) {
		stats := &chaos.Stats{}
		o := Options{
			DurationSec: 20, TraceSampleEvery: 1, EventSampleEvery: 1, Check: check,
			Chaos:      &chaos.Plan{BSCrashes: 4, MeanDownSec: 3, FailoverPenaltyUS: 1500, Storms: 3, StormFactor: 4, MeanStormSec: 3},
			ChaosStats: stats,
		}
		if stream {
			o.Stream = sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})
		}
		return o, stats
	}
	refOpts, refStats := mkOpts(true, false)
	ref, err := sim.Run(context.Background(), refOpts)
	if err != nil {
		t.Fatal(err)
	}
	refFP, refSK := invariant.Fingerprint(ref), refOpts.Stream.Fingerprint()
	nVDs := sim.runVDs(refOpts)

	cell := func(workers, shards int, stream, check bool) {
		opts, stats := mkOpts(stream, check)
		opts.Workers = workers
		var parts []*ShardPartial
		for _, r := range cluster.PlanShards(nVDs, shards) {
			p, err := sim.RunShard(context.Background(), opts, r.Lo, r.Hi)
			if err != nil {
				t.Fatalf("Workers=%d shards=%d: RunShard%v: %v", workers, shards, r, err)
			}
			if p.Records != nil {
				t.Fatalf("Workers=%d shards=%d: RunShard%v joined its records", workers, shards, r)
			}
			parts = append(parts, p)
		}
		if workers == 1 && shards == 1 && len(parts[0].Chunks()) < 2 {
			t.Fatalf("the whole run sits in %d chunk, want a chunk boundary inside a disk's records", len(parts[0].Chunks()))
		}
		var before [][]byte
		for _, p := range parts {
			for _, chunk := range p.Chunks() {
				before = append(before, append([]byte(nil), chunk...))
			}
		}
		for _, order := range []string{"reversed", "plan"} {
			slices.Reverse(parts)
			what := fmt.Sprintf("Workers=%d shards=%d stream=%v check=%v order=%s", workers, shards, stream, check, order)
			*stats = chaos.Stats{}
			ds, err := sim.MergeShards(opts, parts)
			if err != nil {
				t.Fatalf("%s: MergeShards: %v", what, err)
			}
			if got := invariant.Fingerprint(ds); got != refFP {
				t.Fatalf("%s: dataset fingerprint %s != Run's %s", what, got[:12], refFP[:12])
			}
			if stream && opts.Stream.Fingerprint() != refSK {
				t.Fatalf("%s: sketch fingerprint drifted", what)
			}
			if *stats != *refStats {
				t.Fatalf("%s: chaos stats %+v != %+v", what, *stats, *refStats)
			}
		}
		i := 0
		for _, p := range parts {
			for _, chunk := range p.Chunks() {
				if !slices.Equal(chunk, before[i]) {
					t.Fatalf("Workers=%d shards=%d: MergeShards wrote to chunk %d of its partials", workers, shards, i)
				}
				i++
			}
		}
		for _, p := range parts {
			p.Release()
			p.Release() // a second call is a no-op
			for _, chunk := range p.Chunks() {
				if len(chunk) != 0 {
					t.Fatalf("Workers=%d shards=%d: a released partial still lends %d records", workers, shards, len(chunk)/trace.RecordSize)
				}
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{1, 3, 8} {
			cell(workers, shards, true, false)
			cell(workers, shards, false, false)
		}
	}
	cell(2, 3, true, true)
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

// TestMergeShardsRejectsForeignSketchConfig: a partial whose sketch set was
// built under another configuration than ShardSketchConfig's cannot be
// merged, so MergeShards refuses it instead of merging it.
func TestMergeShardsRejectsForeignSketchConfig(t *testing.T) {
	sim := New(smallFleet(t))
	opts := Options{DurationSec: 4, TraceSampleEvery: 1, EventSampleEvery: 4, MaxVDs: 8,
		Stream: sketch.NewSet(sketch.Config{TopK: 8, SegPerVD: 4})}
	want, err := sim.ShardSketchConfig(opts)
	if err != nil || want == nil {
		t.Fatalf("ShardSketchConfig = %v, %v; want the streaming run's config", want, err)
	}
	a, err := sim.RunShard(context.Background(), opts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunShard(context.Background(), opts, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Sketch.Config(); got != *want {
		t.Fatalf("RunShard streamed under %+v, ShardSketchConfig says %+v", got, *want)
	}
	foreign := *want
	foreign.HLLPrecision = 16
	b.Sketch = sketch.NewSet(foreign)
	if _, err := sim.MergeShards(opts, []*ShardPartial{a, b}); err == nil || !strings.Contains(err.Error(), "sketch config") {
		t.Fatalf("foreign-config partial merged: %v", err)
	}
	if cfg, err := sim.ShardSketchConfig(Options{DurationSec: 4}); cfg != nil || err != nil {
		t.Fatalf("a run without Stream has shard sketch config %v (%v), want none", cfg, err)
	}
}
