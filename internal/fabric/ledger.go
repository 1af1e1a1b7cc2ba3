package fabric

import (
	"fmt"
	"slices"
	"time"

	"ebslab/internal/cluster"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
)

// shardState tracks one planned shard through dispatch, execution, and
// result accounting. A shard is done once it holds its accepted partial,
// running while it is not done and some worker executes it, and pending
// otherwise.
type shardState struct {
	r cluster.ShardRange
	// attempted records every worker the shard was ever dispatched to, so
	// re-dispatch (speculation or requeue) lands on a different worker; its
	// size is the shard's dispatch count.
	attempted map[uint64]bool
	// running is the subset of attempted workers believed alive and still
	// executing the shard.
	running map[uint64]bool
	// returnedBy records workers whose result for this shard was already
	// accounted (its size is the returned count), so a retransmit after a
	// lost reply is acknowledged without double-counting.
	returnedBy map[uint64]bool
	// firstDispatch anchors straggler detection.
	firstDispatch time.Time
	lastDispatch  time.Time
	partial       *ebs.ShardPartial
}

// shardLedger is the coordinator's dispatch and result accounting: plain
// state that the coordinator's mutex guards, so every method runs under it.
// Nothing here reads the wall clock: each handler stamps the time it passes
// in, which is what lets the tests drive liveness and speculation with a
// test clock.
type shardLedger struct {
	cfg Config // defaults resolved; supplies liveness/speculation knobs
	// stream is the sketch configuration joining workers build their sets
	// from (nil = no streaming), read once at construction: the final merge
	// overwrites *cfg.Opts.Stream, possibly while a late worker joins.
	stream *sketch.Config
	// shardSketch is the configuration every shard partial's sketch set
	// carries (ebs.Sim.ShardSketchConfig; nil = no streaming, so no sketch).
	shardSketch *sketch.Config

	shards  []*shardState
	workers map[uint64]time.Time // last beat per registered worker
	nextID  uint64
	// allDone is closed once every shard holds its accepted partial.
	allDone chan struct{}
	// avail is closed, and replaced by a fresh channel, whenever a shard
	// becomes placeable or the run completes (result accepted, shard
	// requeued): the coordinator's assign long-poll parks on it instead of
	// making workers retry on a timer.
	avail chan struct{}
}

func newShardLedger(cfg Config, plan []cluster.ShardRange, shardSketch *sketch.Config) *shardLedger {
	f := &shardLedger{
		cfg:         cfg,
		shardSketch: shardSketch,
		workers:     make(map[uint64]time.Time),
		allDone:     make(chan struct{}),
		avail:       make(chan struct{}),
	}
	if set := cfg.Opts.Stream; set != nil {
		sc := set.Config()
		f.stream = &sc
	}
	for _, r := range plan {
		f.shards = append(f.shards, &shardState{
			r:          r,
			attempted:  make(map[uint64]bool),
			running:    make(map[uint64]bool),
			returnedBy: make(map[uint64]bool),
		})
	}
	return f
}

// wake wakes every assign parked on avail.
func (f *shardLedger) wake() {
	close(f.avail)
	f.avail = make(chan struct{})
}

// join registers a new worker and hands it the run description.
func (f *shardLedger) join(now time.Time) JoinReply {
	f.nextID++
	id := f.nextID
	f.workers[id] = now
	return JoinReply{
		WorkerID:    id,
		Spec:        f.cfg.runSpec(),
		Stream:      f.stream,
		HeartbeatMS: f.cfg.heartbeatEvery.Milliseconds(),
	}
}

// assign places a shard on the asking worker: first a pending shard the
// worker has not attempted, then — when nothing is pending but shards are
// still out — a speculative copy of the slowest straggling shard. A worker
// the ledger issued but no longer lists (reaped or drained) registers again,
// so the reaper sees the shard it takes; an ID never issued is refused.
func (f *shardLedger) assign(workerID uint64, now time.Time) (AssignReply, error) {
	if workerID == 0 || workerID > f.nextID {
		return AssignReply{}, fmt.Errorf("fabric: assign from worker %d, which never joined", workerID)
	}
	f.workers[workerID] = now
	f.reap(now)

	if f.done() {
		return AssignReply{Status: AssignDone}, nil
	}
	// A worker the ledger already lists as executing a shard is re-asking
	// because its assign reply was lost on the wire. Re-offer the same shard
	// instead of parking it: a second dispatch would strand the first copy
	// until speculation rescues it.
	for i, sh := range f.shards {
		if sh.partial == nil && sh.running[workerID] {
			return AssignReply{Status: AssignShard, Shard: i, Lo: sh.r.Lo, Hi: sh.r.Hi}, nil
		}
	}
	var pending []int
	for i, sh := range f.shards {
		if sh.partial == nil && len(sh.running) == 0 {
			pending = append(pending, i)
		}
	}
	pick := cluster.PickShard(pending, func(s int) bool { return f.shards[s].attempted[workerID] })
	if pick < 0 {
		pick = f.straggler(workerID, now)
	}
	if pick < 0 {
		return AssignReply{Status: AssignWait}, nil
	}
	sh := f.shards[pick]
	sh.attempted[workerID] = true
	sh.running[workerID] = true
	if sh.firstDispatch.IsZero() {
		sh.firstDispatch = now
	}
	sh.lastDispatch = now
	return AssignReply{Status: AssignShard, Shard: pick, Lo: sh.r.Lo, Hi: sh.r.Hi}, nil
}

// straggler picks the running shard that has been out the longest, if it
// crossed the speculation threshold and this worker never attempted it.
func (f *shardLedger) straggler(workerID uint64, now time.Time) int {
	best := -1
	for i, sh := range f.shards {
		if sh.partial != nil || len(sh.running) == 0 || sh.attempted[workerID] {
			continue
		}
		if now.Sub(sh.lastDispatch) < f.cfg.speculateAfter {
			continue
		}
		if best < 0 || sh.firstDispatch.Before(f.shards[best].firstDispatch) {
			best = i
		}
	}
	return best
}

// result accounts one returned shard result, decoded by the caller. The
// first result per shard is accepted; later copies (from speculation or
// requeue races) are acknowledged but dropped, so every shard contributes to
// the merge at most once. A worker re-uploading a result it already
// delivered (a retransmit after the reply was lost) is acknowledged without
// touching the ledger at all.
func (f *shardLedger) result(workerID uint64, shardID int, p *ebs.ShardPartial, now time.Time) error {
	if shardID < 0 || shardID >= len(f.shards) {
		return fmt.Errorf("fabric: result for unknown shard %d", shardID)
	}
	f.touch(workerID, now)
	sh := f.shards[shardID]
	if p.Lo != sh.r.Lo || p.Hi != sh.r.Hi {
		return fmt.Errorf("fabric: shard %d result covers [%d,%d), plan says %v",
			shardID, p.Lo, p.Hi, sh.r)
	}
	// A sketch set is present exactly when the run streams, and built under
	// the run's shard config: the snapshot and final merges could not fold
	// any other.
	if set := p.Sketch; (set == nil) != (f.shardSketch == nil) || set != nil && set.Config() != *f.shardSketch {
		return fmt.Errorf("fabric: shard %d result's sketch state does not fit the run's sketch config", shardID)
	}
	if sh.returnedBy[workerID] {
		return nil
	}
	sh.returnedBy[workerID] = true
	delete(sh.running, workerID)
	if sh.partial != nil {
		return nil
	}
	sh.partial = p
	if !slices.ContainsFunc(f.shards, func(sh *shardState) bool { return sh.partial == nil }) {
		close(f.allDone) // only the last shard's first result gets here
	}
	// An accepted result changes what the next assign answers (fewer shards
	// out, possibly done): wake any worker parked in an assign long-poll.
	f.wake()
	return nil
}

// done reports whether allDone is closed: every shard has its partial.
func (f *shardLedger) done() bool {
	select {
	case <-f.allDone:
		return true
	default:
		return false
	}
}

func (f *shardLedger) touch(workerID uint64, now time.Time) {
	if _, ok := f.workers[workerID]; ok {
		f.workers[workerID] = now
	}
}

// reap declares workers silent past the liveness timeout dead and requeues
// their shards. Liveness is evaluated on control-plane traffic (every assign
// and heartbeat), so a fleet with any live worker converges without a
// background timer.
func (f *shardLedger) reap(now time.Time) {
	for id, beat := range f.workers {
		if now.Sub(beat) > f.cfg.livenessTimeout {
			delete(f.workers, id)
			f.requeue(id)
		}
	}
}

// drain deregisters a departing worker and requeues whatever it still runs.
func (f *shardLedger) drain(workerID uint64) {
	delete(f.workers, workerID)
	f.requeue(workerID)
}

// requeue removes the worker from every running shard; shards left with no
// live executor return to pending (the worker stays in attempted, so the
// retry lands elsewhere when possible).
func (f *shardLedger) requeue(workerID uint64) {
	freed := false
	for _, sh := range f.shards {
		if sh.partial != nil || !sh.running[workerID] {
			continue
		}
		delete(sh.running, workerID)
		freed = freed || len(sh.running) == 0
	}
	if freed {
		f.wake() // a shard went back to pending: long-polls can place it
	}
}

// snapshot copies the dispatch/result accounting out for the cross-process
// conservation law.
func (f *shardLedger) snapshot() *invariant.ShardLedger {
	l := &invariant.ShardLedger{
		Dispatched: make([]int, len(f.shards)),
		Returned:   make([]int, len(f.shards)),
		Accepted:   make([]int, len(f.shards)),
	}
	for i, sh := range f.shards {
		l.Dispatched[i] = len(sh.attempted)
		l.Returned[i] = len(sh.returnedBy)
		if sh.partial != nil {
			l.Accepted[i] = 1
		}
	}
	return l
}
