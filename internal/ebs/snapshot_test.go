package ebs

import (
	"context"
	"sync/atomic"
	"testing"

	"ebslab/internal/sketch"
)

// TestSnapshotSinkStreamedEqualsFinal pins the gateway's streamed-vs-final
// contract at the engine layer: a run with a SnapshotSink folds per-VD sketch
// deltas whose merged state, after the last disk, is fingerprint-identical to
// the run's final Options.Stream set — i.e. the snapshot stream converges on
// exactly the answer a tenant would get by waiting for completion. A mid-run
// snapshot (taken from the Progress hook) must already decode and carry IOs.
func TestSnapshotSinkStreamedEqualsFinal(t *testing.T) {
	fleet := smallFleet(t)
	sim := New(fleet)

	final := sketch.NewSet(sketch.Config{})
	sink := &SnapshotSink{}
	var midIOs atomic.Uint64
	opts := Options{
		MaxVDs:           12,
		EventSampleEvery: 16,
		Stream:           final,
		Snapshots:        sink,
		Progress: func(done, total int) {
			if done != total/2 {
				return
			}
			enc, vds, seq := sink.Snapshot()
			if enc == nil || vds == 0 || seq == 0 {
				t.Errorf("mid-run snapshot empty at %d/%d VDs", done, total)
				return
			}
			set, err := sketch.DecodeSet(enc)
			if err != nil {
				t.Errorf("mid-run snapshot does not decode: %v", err)
				return
			}
			midIOs.Store(set.Totals().IOs)
		},
	}
	if _, err := sim.Run(nil, opts); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if midIOs.Load() == 0 {
		t.Fatal("mid-run snapshot observed no IOs")
	}
	served, vds := sink.SketchSnapshot()
	if got, want := served.Fingerprint(), final.Fingerprint(); got != want {
		t.Fatalf("streamed snapshot fingerprint %s != final sketch fingerprint %s", got, want)
	}
	if vds != 12 {
		t.Fatalf("sink folded %d VDs, want 12", vds)
	}
	if final.Totals().IOs < midIOs.Load() {
		t.Fatalf("final IOs %d < mid-run IOs %d: snapshots are not monotone", final.Totals().IOs, midIOs.Load())
	}
}

// TestSnapshotsRequireStream pins the validation: a sink without a streaming
// destination is a configuration error, not a silent no-op.
func TestSnapshotsRequireStream(t *testing.T) {
	fleet := smallFleet(t)
	_, err := New(fleet).Run(nil, Options{MaxVDs: 2, Snapshots: &SnapshotSink{}})
	if err == nil {
		t.Fatal("Run accepted Snapshots without Stream")
	}
}

var raceEnabled bool // set by race_test.go

// TestSnapshotSinkCostsNoPerDiskState pins what attaching a sink costs a run
// nobody snapshots: a constant, whatever the fleet size. The sink is a handle
// on the shards' sets, so there is no second ingest and no per-disk set.
func TestSnapshotSinkCostsNoPerDiskState(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under the race detector")
	}
	sim := New(smallFleet(t))
	allocs := func(maxVDs int, sink *SnapshotSink) float64 {
		opts := Options{DurationSec: 4, EventSampleEvery: 8, MaxVDs: maxVDs, Workers: 1, Snapshots: sink}
		run := func() {
			opts.Stream = sketch.NewSet(sketch.Config{})
			if _, err := sim.Run(context.Background(), opts); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		run() // warm the pools
		return testing.AllocsPerRun(3, run)
	}
	const slack = 8
	for _, maxVDs := range []int{4, 16} {
		bare, sunk := allocs(maxVDs, nil), allocs(maxVDs, &SnapshotSink{})
		if sunk > bare+slack {
			t.Errorf("MaxVDs %d: %.0f allocations with a sink, %.0f without (allowed +%d)", maxVDs, sunk, bare, slack)
		}
	}
}

// TestSnapshotSinkConcurrentReader reads the sink from another goroutine for
// the whole length of a two-worker run (the race detector's view of the
// flush lock): every snapshot is a whole state, and IO totals never go back.
func TestSnapshotSinkConcurrentReader(t *testing.T) {
	sim := New(smallFleet(t))
	sink := &SnapshotSink{}
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		var last uint64
		for {
			if set, _ := sink.SketchSnapshot(); set != nil {
				if ios := set.Totals().IOs; ios < last {
					t.Errorf("snapshot went back from %d IOs to %d", last, ios)
				} else {
					last = ios
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	final := sketch.NewSet(sketch.Config{})
	_, err := sim.Run(context.Background(), Options{MaxVDs: 12, EventSampleEvery: 16, Workers: 2, Stream: final, Snapshots: sink})
	close(stop)
	<-read
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	served, _ := sink.SketchSnapshot()
	if got, want := served.Fingerprint(), final.Fingerprint(); got != want {
		t.Fatalf("sink serves %s after the run, final sketch is %s", got, want)
	}
}
