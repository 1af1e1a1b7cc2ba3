package ebs

import (
	"sync"

	"ebslab/internal/sketch"
)

// SnapshotSink is a concurrent reader's handle on a streaming run's sketch
// state: while the run executes, a snapshot is the merge of the shards' live
// sets (each read under its shard's flush lock, and only read — Set.Merge
// copies), so another goroutine (the gateway's StreamSnapshot op) can encode
// approximate quantiles and top-K rankings mid-run; once the run ends, a
// snapshot is the run's *Options.Stream itself. The sink keeps no sketch
// state of its own, so the streamed view converges on the final answer by
// construction — the streamed-vs-final identity the gateway tests pin.
// Totals only grow from one snapshot to the next; a mid-run snapshot may
// include part of a disk still being simulated.
//
// The zero value is ready to use; hand it to Options.Snapshots (which
// requires Options.Stream). All methods are safe for concurrent use.
type SnapshotSink struct {
	mu    sync.Mutex
	run   *runState   // the executing run; nil before it starts and after it ends
	final *sketch.Set // the ended run's *Options.Stream, over vds disks
	vds   int
}

// point aims the sink at an executing run, at an ended run's merged state
// over vds disks, or (a failed run) at nothing. A nil sink ignores it.
func (k *SnapshotSink) point(r *runState, final *sketch.Set, vds int) {
	if k == nil {
		return
	}
	k.mu.Lock()
	k.run, k.final, k.vds = r, final, vds
	k.mu.Unlock()
}

// SketchSnapshot returns the current sketch state and how many virtual disks
// have completed, or (nil, 0) before the first one does. The disk count is
// read before the sets, so the state covers at least that many disks. The
// set is the caller's to read, not to write: once the run has ended it is
// the run's *Options.Stream itself.
func (k *SnapshotSink) SketchSnapshot() (*sketch.Set, int) {
	k.mu.Lock()
	run, set, vds := k.run, k.final, k.vds
	k.mu.Unlock()
	if run != nil {
		if vds = int(run.done.Load()); vds > 0 {
			set = run.sketchSoFar()
		}
	}
	return set, vds
}

// Snapshot returns the binary encoding (sketch.DecodeSet reverses it) of
// SketchSnapshot's state, the number of completed virtual disks, and a
// sequence number that never decreases (that same count). Before the first
// disk completes it returns (nil, 0, 0).
func (k *SnapshotSink) Snapshot() (enc []byte, vds int, seq uint64) {
	set, vds := k.SketchSnapshot()
	if set == nil {
		return nil, 0, 0
	}
	return set.EncodeBinary(), vds, uint64(vds)
}
