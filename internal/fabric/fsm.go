package fabric

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"ebslab/internal/cluster"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
	"ebslab/internal/wire"
)

// --- Replicated control-plane commands -------------------------------------
//
// Every mutation of the shard ledger travels through the consensus log as one
// binary command, so the ledger is a deterministic function of the committed
// command sequence: any replica that applies the same prefix holds the same
// shards, workers, and accounting — which is what lets a new leader resume a
// run mid-flight after the old one dies.
//
//	command: u8 kind | u64 worker | i64 atUnixNano | u32 frameLen | frame
//
// At is stamped by the proposing leader from its clock, so time-dependent
// transitions (liveness reaping, speculation thresholds) replay identically
// on every replica: FSM time only advances when entries commit.

// Command kinds, one per control-plane op.
const (
	cmdJoin uint8 = iota + 1
	cmdAssign
	cmdResult
	cmdHeartbeat
	cmdDrain
)

// command is one decoded ledger mutation. Frame is the raw shard-result
// frame for cmdResult (empty otherwise): embedding the worker's exact bytes
// lets every replica decode the identical partial.
type command struct {
	Kind   uint8
	Worker uint64
	At     int64
	Frame  []byte
}

// commandHeaderLen is the bytes of a command in front of its frame.
const commandHeaderLen = 1 + 8 + 8 + 4

// putCommandHeader writes a command's header over b[:commandHeaderLen].
func putCommandHeader(b []byte, kind uint8, worker uint64, at int64, frameLen int) {
	b[0] = kind
	binary.LittleEndian.PutUint64(b[1:], worker)
	binary.LittleEndian.PutUint64(b[9:], uint64(at))
	binary.LittleEndian.PutUint32(b[17:], uint32(frameLen))
}

// encodeCommand builds a control op's command. A shard result's command is
// never built this way: the worker's payload arrives with room for the header
// and the leader stamps it in place (Coordinator.proposeResult).
func encodeCommand(c *command) []byte {
	b := make([]byte, commandHeaderLen+len(c.Frame))
	putCommandHeader(b, c.Kind, c.Worker, c.At, len(c.Frame))
	copy(b[commandHeaderLen:], c.Frame)
	return b
}

func decodeCommand(data []byte) (command, error) {
	r := wire.NewReader(data, ErrWire)
	var c command
	c.Kind = r.U8()
	c.Worker = r.U64()
	c.At = r.I64()
	c.Frame = r.Take(r.Count(1))
	if err := r.Done(); err != nil {
		return command{}, err
	}
	if c.Kind < cmdJoin || c.Kind > cmdDrain {
		return command{}, fmt.Errorf("%w: ledger command kind %d", ErrWire, c.Kind)
	}
	return c, nil
}

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
	// lost reply (leader failover) is acknowledged without double-counting.
	returnedBy map[uint64]bool
	// firstDispatch anchors straggler detection.
	firstDispatch time.Time
	lastDispatch  time.Time
	partial       *ebs.ShardPartial
}

// pulse is a reusable broadcast: wait hands out the current channel, fire
// closes it and installs a fresh one, waking every waiter at once. The FSM
// fires it when shard availability changes; assign long-polls wait on it.
// Its mutex is a leaf — fire runs under the Runner's lock and must not
// acquire anything else.
type pulse struct {
	mu sync.Mutex
	ch chan struct{}
}

func newPulse() *pulse { return &pulse{ch: make(chan struct{})} }

func (p *pulse) wait() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ch
}

func (p *pulse) fire() {
	p.mu.Lock()
	close(p.ch)
	p.ch = make(chan struct{})
	p.mu.Unlock()
}

// ledgerFSM is the replicated shard ledger: the deterministic state machine
// the consensus Runner applies committed commands to. All methods run under
// the Runner's lock; nothing here reads the wall clock — every timestamp
// comes from the command being applied.
type ledgerFSM struct {
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
	// avail fires whenever a shard becomes placeable or the run completes
	// (result accepted, shard requeued): the coordinator's assign long-poll
	// re-asks on it instead of making workers retry on a timer.
	avail *pulse
}

func newLedgerFSM(cfg Config, plan []cluster.ShardRange, shardSketch *sketch.Config) *ledgerFSM {
	f := &ledgerFSM{
		cfg:         cfg,
		shardSketch: shardSketch,
		workers:     make(map[uint64]time.Time),
		allDone:     make(chan struct{}),
		avail:       newPulse(),
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

// Apply consumes one committed command. The reply is what the proposing
// handler sends back to the worker; error replies surface as StatusError.
// Apply is a pure function of (ledger state, command): map iteration never
// decides anything order-sensitive, and time is read from the command stamp,
// so replicas applying the same log converge on identical ledgers.
func (f *ledgerFSM) Apply(index uint64, cmd []byte) any {
	c, err := decodeCommand(cmd)
	if err != nil {
		return err
	}
	now := time.Unix(0, c.At)
	switch c.Kind {
	case cmdJoin:
		return f.join(now)
	case cmdAssign:
		return f.assign(c.Worker, now)
	case cmdResult:
		return f.result(c.Frame, now)
	case cmdHeartbeat:
		f.touch(c.Worker, now)
		f.reap(now)
		return nil
	case cmdDrain:
		delete(f.workers, c.Worker)
		f.requeue(c.Worker)
		return nil
	}
	return fmt.Errorf("fabric: unknown ledger command kind %d", c.Kind)
}

// join registers a new worker and hands it the run description.
func (f *ledgerFSM) join(now time.Time) JoinReply {
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
func (f *ledgerFSM) assign(workerID uint64, now time.Time) any {
	if workerID == 0 || workerID > f.nextID {
		return fmt.Errorf("fabric: assign from worker %d, which never joined", workerID)
	}
	f.workers[workerID] = now
	f.reap(now)

	if f.done() {
		return AssignReply{Status: AssignDone}
	}
	// A worker the ledger already lists as executing a shard is re-asking
	// because its assign reply was lost (leader failover between commit and
	// response). Re-offer the same shard instead of parking it: a second
	// dispatch would strand the first copy until speculation rescues it.
	for i, sh := range f.shards {
		if sh.partial == nil && sh.running[workerID] {
			return AssignReply{Status: AssignShard, Shard: i, Lo: sh.r.Lo, Hi: sh.r.Hi}
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
		return AssignReply{Status: AssignWait}
	}
	sh := f.shards[pick]
	sh.attempted[workerID] = true
	sh.running[workerID] = true
	if sh.firstDispatch.IsZero() {
		sh.firstDispatch = now
	}
	sh.lastDispatch = now
	return AssignReply{Status: AssignShard, Shard: pick, Lo: sh.r.Lo, Hi: sh.r.Hi}
}

// straggler picks the running shard that has been out the longest, if it
// crossed the speculation threshold and this worker never attempted it.
func (f *ledgerFSM) straggler(workerID uint64, now time.Time) int {
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

// result accounts one returned shard result. The first result per shard
// wins; later copies (from speculation or requeue races) are acknowledged
// but dropped, so every shard contributes to the merge at most once. A
// worker re-uploading a result it already delivered (retransmit after a
// leader failover ate the reply) is acknowledged without touching the
// ledger at all.
func (f *ledgerFSM) result(frame []byte, now time.Time) any {
	workerID, shardID, p, err := decodeResult(frame)
	if err != nil {
		return err
	}
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
		return resultReply{}
	}
	sh.returnedBy[workerID] = true
	delete(sh.running, workerID)
	if sh.partial != nil {
		return resultReply{}
	}
	sh.partial = p
	if !slices.ContainsFunc(f.shards, func(sh *shardState) bool { return sh.partial == nil }) {
		close(f.allDone) // only the last shard's first result gets here
	}
	// An accepted result changes what the next assign answers (fewer shards
	// out, possibly done): wake any worker parked in an assign long-poll.
	f.avail.fire()
	return resultReply{Accepted: true}
}

// done reports whether allDone is closed: every shard has its partial.
func (f *ledgerFSM) done() bool {
	select {
	case <-f.allDone:
		return true
	default:
		return false
	}
}

func (f *ledgerFSM) touch(workerID uint64, now time.Time) {
	if _, ok := f.workers[workerID]; ok {
		f.workers[workerID] = now
	}
}

// reap declares workers silent past the liveness timeout dead and requeues
// their shards. Liveness is evaluated on control-plane traffic (every assign
// and heartbeat), so a fleet with any live worker converges without a
// background timer — and, because the evaluation happens at apply time from
// command stamps, every replica reaps the same workers at the same log
// position. Requeues commute (each removes one worker from disjoint running
// sets), so map iteration order cannot diverge replicas.
func (f *ledgerFSM) reap(now time.Time) {
	for id, beat := range f.workers {
		if now.Sub(beat) > f.cfg.livenessTimeout {
			delete(f.workers, id)
			f.requeue(id)
		}
	}
}

// requeue removes the worker from every running shard; shards left with no
// live executor return to pending (the worker stays in attempted, so the
// retry lands elsewhere when possible).
func (f *ledgerFSM) requeue(workerID uint64) {
	freed := false
	for _, sh := range f.shards {
		if sh.partial != nil || !sh.running[workerID] {
			continue
		}
		delete(sh.running, workerID)
		freed = freed || len(sh.running) == 0

	}
	if freed {
		f.avail.fire() // a shard went back to pending: long-polls can place it
	}
}

// ledger snapshots the dispatch/result accounting. Caller must hold the
// Runner's lock (via Runner.Read).
func (f *ledgerFSM) ledger() *invariant.ShardLedger {
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
