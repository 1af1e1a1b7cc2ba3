// Package fabric is the distributed simulation control plane: a coordinator
// partitions the synthetic fleet into VD-disjoint shards, dispatches them to
// worker processes over the netblock protocol's fabric ops (JoinFleet,
// AssignShard, ShardResult, Heartbeat, Drain), and deterministically merges
// the shard partials into a dataset byte-identical to a single-process run —
// for any worker count, and across worker crashes, stragglers, and duplicate
// results. The shard ledger itself is a replicated state machine: with
// Replicas > 1 every mutation is committed through a consensus log before it
// takes effect, so a coordinator replica can die mid-run and a newly elected
// leader resumes from the identical ledger. See DESIGN.md, "Distributed
// execution" and "Control-plane replication". The two binary frames
// (shard result in msg.go, ledger command in fsm.go) are walks over the
// internal/wire cursor; DESIGN.md, "Wire formats" lists their caps.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ebslab/internal/cluster"
	"ebslab/internal/consensus"
	"ebslab/internal/ebs"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// Config describes one distributed run.
type Config struct {
	// Fleet is the generation recipe, shipped to every worker.
	Fleet workload.Config
	// Opts are the run options. None of their sinks crosses the wire; the
	// ones the merge fills — Stream (and Snapshots over it), ChaosStats and
	// Observe — stay on the coordinator and are filled exactly like
	// ebs.Sim.Run would fill them. Progress is never called and Clocks reads
	// only the merge's finish and check: no disk runs here.
	Opts ebs.Options
	// Scenario optionally names a scenario spec ("bufferbloat,period=16")
	// every worker binds to its regenerated fleet. The coordinator binds it
	// too, to its own fleet, but only to cost the disks for the shard plan —
	// merging needs only the shard partials. Opts.Scenario must stay nil (it
	// cannot be bound to the coordinator's internal fleet from outside);
	// NewCoordinator rejects it, and a replay scenario, whose trace file
	// workers cannot read.
	Scenario string
	// Shards is how many shards to plan (0 = 4). The plan cuts the disks into
	// contiguous ranges of balanced predicted IOs, not disk counts, and numbers
	// them heaviest first, so a skewed fleet's hot disk starts first and more
	// shards than workers let the light ones fill in around it.
	Shards int

	// ReplicaID is this coordinator's identity in the replica set, in
	// [0, Replicas). Replica 0 bootstraps as the initial leader.
	ReplicaID int
	// Replicas is the control-plane replica count (0 or 1 = unreplicated:
	// a single-node consensus group that commits inline, with no ticker
	// and no transport).
	Replicas int
	// Transport delivers consensus messages to peer replicas. Required when
	// Replicas > 1; ignored otherwise.
	Transport consensus.Transport

	// The timing below is fixed outside this package's tests, which shorten
	// it to stage reaping, speculation and elections in milliseconds.

	// heartbeatEvery is the beat interval workers are told to use (500ms).
	heartbeatEvery time.Duration
	// livenessTimeout declares a silent worker dead and requeues its shards
	// (4 * heartbeatEvery).
	livenessTimeout time.Duration
	// speculateAfter re-dispatches a still-running shard to an idle worker
	// once the shard has been out that long (30s; straggler mitigation).
	// At-most-once accounting keeps duplicate results safe.
	speculateAfter time.Duration
	// tickEvery is the consensus logical-clock interval (5ms when
	// Replicas > 1). Election and heartbeat spans are multiples of it.
	tickEvery time.Duration
	// now overrides the clock in tests. The leader stamps proposals with it;
	// replicas never read a clock of their own.
	now func() time.Time
	// onLeader fires when this replica wins (or bootstraps) leadership.
	onLeader func(term uint64, id int)
	// onApplied fires after each committed ledger command applies locally;
	// the replica set's chaos leader-kill trigger hangs here.
	onApplied func(kind uint8, reply any, leader bool)
}

const (
	// assignHoldFor is how long an AssignShard request with nothing placeable
	// is held server-side waiting for availability to change (a result
	// landing, a shard requeuing) before the worker is told to back off and
	// retry. Event-driven wakeup keeps an idle worker from sleeping out a
	// back-off after the run's last result arrives.
	assignHoldFor = 50 * time.Millisecond
	// proposeTimeout bounds how long a control-plane request waits for its
	// ledger command to commit (typically: no quorum).
	proposeTimeout = 10 * time.Second
)

// runSpec is the run description every worker opens: the join payload.
func (c Config) runSpec() ebs.RunSpec {
	return ebs.RunSpec{Fleet: c.Fleet, Opts: c.Opts, Scenario: c.Scenario}
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.heartbeatEvery <= 0 {
		c.heartbeatEvery = 500 * time.Millisecond
	}
	if c.livenessTimeout <= 0 {
		c.livenessTimeout = 4 * c.heartbeatEvery
	}
	if c.speculateAfter <= 0 {
		c.speculateAfter = 30 * time.Second
	}
	if c.Replicas <= 1 {
		c.Replicas = 1
	}
	if c.tickEvery <= 0 {
		c.tickEvery = 5 * time.Millisecond
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Coordinator runs the control plane. It implements netblock.Handler: mount
// it on a netblock.Server (NewHandlerServer) over any listener — TCP for
// real deployments, Loopback for in-process fabrics. Every ledger mutation
// is proposed to the consensus runner and applied only once committed; on a
// non-leader replica the fabric ops answer StatusRedirect so workers can
// find the leader.
type Coordinator struct {
	cfg    Config
	sim    *ebs.Sim
	plan   []cluster.ShardRange
	fsm    *ledgerFSM
	runner *consensus.Runner

	mergeOnce sync.Once
	result    *trace.Dataset
	mergeErr  error
}

// NewCoordinator opens the spec, plans the shards from its per-disk costs, and
// returns a coordinator ready to be served.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	co, err := newCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	co.runner.Start()
	return co, nil
}

// newCoordinator is NewCoordinator short of starting the consensus ticker, so
// a replica set can build every replica before any of them sends.
func newCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	// Fail at construction, not on every worker: the spec must be something
	// shards on other processes can run, and it must open (Open validates it
	// before it generates the fleet).
	spec := cfg.runSpec()
	if err := spec.Distributable(); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if cfg.ReplicaID < 0 || cfg.ReplicaID >= cfg.Replicas {
		return nil, fmt.Errorf("fabric: replica ID %d outside the %d-replica set", cfg.ReplicaID, cfg.Replicas)
	}
	if cfg.Replicas > 1 && cfg.Transport == nil {
		return nil, fmt.Errorf("fabric: %d replicas need a consensus transport", cfg.Replicas)
	}
	// The scenario is bound here only so the disks are costed on the traffic
	// the workers will simulate; the merge runs under cfg.Opts.
	sim, opts, err := spec.Open()
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	costs, err := sim.DiskCosts(opts)
	if err != nil {
		return nil, fmt.Errorf("fabric: cost the shard plan: %w", err)
	}
	plan := cluster.PlanShardsByCost(costs, cfg.Shards)
	if len(plan) == 0 {
		return nil, fmt.Errorf("fabric: nothing to plan (%d VDs)", len(costs))
	}
	shardSketch, err := sim.ShardSketchConfig(cfg.Opts)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	co := &Coordinator{
		cfg:  cfg,
		sim:  sim,
		plan: plan,
		fsm:  newLedgerFSM(cfg, plan, shardSketch),
	}
	tick := cfg.tickEvery
	if cfg.Replicas == 1 {
		tick = 0 // single-node groups commit inline; no ticker goroutine
	}
	co.runner = consensus.NewRunner(consensus.RunnerConfig{
		Node: consensus.NewNode(consensus.Config{
			ID:              cfg.ReplicaID,
			Peers:           cfg.Replicas,
			BootstrapLeader: 0,
			Seed:            cfg.Fleet.Seed,
		}),
		FSM:            co.fsm,
		Transport:      cfg.Transport,
		TickEvery:      tick,
		OnBecomeLeader: cfg.onLeader,
		OnApply:        co.applied,
	})
	return co, nil
}

// applied adapts the runner's apply hook to the config's, surfacing the
// command kind so the replica set can watch for accepted results.
func (co *Coordinator) applied(cmd []byte, reply any, leader bool) {
	if co.cfg.onApplied == nil || len(cmd) == 0 {
		return
	}
	co.cfg.onApplied(cmd[0], reply, leader)
}

// Plan exposes the shard plan, indexed by shard ID: cluster.PlanShardsByCost
// over the run's ebs.Sim.DiskCosts, so the heaviest shard has ID 0 and is
// dispatched first. Every replica of a set derives the same plan.
func (co *Coordinator) Plan() []cluster.ShardRange { return co.plan }

// Stop shuts the replica down: the consensus runner stops, parked proposals
// fail, and every later control-plane request is rejected. This is both the
// orderly teardown and the chaos "kill this replica" primitive.
func (co *Coordinator) Stop() { co.runner.Stop() }

// Deliver feeds one consensus message into this replica (used by in-process
// replica sets; TCP deployments arrive through Handle instead).
func (co *Coordinator) Deliver(m consensus.Message) { co.runner.Deliver(m) }

// DoneCh is closed once every shard has an accepted result in this
// replica's ledger.
func (co *Coordinator) DoneCh() <-chan struct{} { return co.fsm.allDone }

// Handle implements netblock.Handler for the fabric control plane: the five
// worker-facing ops (proposed through the consensus log) plus the replica-
// to-replica consensus ops.
func (co *Coordinator) Handle(req *netblock.Request) *netblock.Response {
	resp := &netblock.Response{ID: req.ID, Status: netblock.StatusOK}
	fail := func(err error) *netblock.Response {
		resp.Status = netblock.StatusError
		resp.Payload = []byte(err.Error())
		return resp
	}
	switch req.Op {
	case netblock.OpRequestVote, netblock.OpAppendEntries:
		m, err := consensus.DecodeMessage(req.Payload)
		if err != nil {
			return fail(err)
		}
		co.runner.Deliver(*m)
		return resp // one-way: responses travel as their own messages
	case netblock.OpJoinFleet:
		return co.propose(resp, command{Kind: cmdJoin})
	case netblock.OpAssignShard:
		var m workerMsg
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		return co.assignHold(resp, m.WorkerID)
	case netblock.OpShardResult:
		return co.proposeResult(resp, req.Payload)
	case netblock.OpHeartbeat:
		var m workerMsg
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		return co.propose(resp, command{Kind: cmdHeartbeat, Worker: m.WorkerID})
	case netblock.OpDrain:
		var m workerMsg
		if err := fromJSON(req.Payload, &m); err != nil {
			return fail(err)
		}
		return co.propose(resp, command{Kind: cmdDrain, Worker: m.WorkerID})
	default:
		return fail(fmt.Errorf("fabric: op %s is not a control-plane request", req.Op))
	}
}

// assignHold proposes the assign and, when the ledger has nothing placeable,
// holds the reply instead of bouncing AssignWait straight back: it parks on
// the FSM's availability pulse and re-proposes the moment a result lands or
// a shard requeues, up to assignHoldFor. An idle worker at the tail of a
// run gets its AssignDone (or the freed shard) with sub-millisecond latency
// instead of discovering it a back-off later — which is the difference
// between the dispatch benchmark's p50 and a 25ms sleep. Only this handler
// goroutine blocks; redirects, errors, and replica shutdown all break out.
func (co *Coordinator) assignHold(resp *netblock.Response, workerID uint64) *netblock.Response {
	// The hold timer is allocated lazily: most assigns place a shard on the
	// first try and never park, and this path runs once per shard.
	var hold *time.Timer
	defer func() {
		if hold != nil {
			hold.Stop()
		}
	}()
	for {
		// Grab the pulse channel before proposing: any availability change
		// after our command applies closes this channel, so a wakeup can
		// never slip between the apply and the park.
		avail := co.fsm.avail.wait()
		reply, err := co.proposeRaw(command{Kind: cmdAssign, Worker: workerID})
		a, isAssign := reply.(AssignReply)
		if err != nil || !isAssign || a.Status != AssignWait {
			return co.render(resp, reply, err) // shard, done, redirect, or error
		}
		if hold == nil {
			hold = time.NewTimer(assignHoldFor)
		}
		select {
		case <-avail:
		case <-hold.C:
			return co.render(resp, reply, nil)
		case <-co.runner.Done():
			// Replica stopping: hand the wait back, the worker fails over.
			return co.render(resp, reply, nil)
		}
	}
}

// proposeRaw stamps the command with the leader clock and commits it through
// the consensus log, returning the FSM's reply unrendered.
func (co *Coordinator) proposeRaw(c command) (any, error) {
	c.At = co.cfg.now().UnixNano()
	return co.runner.Propose(encodeCommand(&c), proposeTimeout)
}

// proposeResult commits a worker's shard-result payload as the cmdResult
// command it was laid out to be. The payload arrives as commandHeaderLen
// reserved bytes and the frame (the worker writes them as resultParts'
// parts; readPayload gathers them into one buffer). The leader stamps the
// header over the reserved bytes — all of them, reading none: kind, worker
// 0, its clock, the frame's true length — and proposes the received buffer
// itself, so the frame is not copied into a command. The frame is not pre-validated
// either: the FSM decodes it at apply time and a malformed one comes back as
// an error reply (StatusError). Decoding a shard result is the most expensive
// control-plane operation, so doing it once — not once to validate and again
// to apply — is what keeps the dispatch hot path at its unreplicated cost.
func (co *Coordinator) proposeResult(resp *netblock.Response, payload []byte) *netblock.Response {
	if len(payload) < commandHeaderLen {
		return co.render(resp, nil, fmt.Errorf("%w: shard-result payload of %d bytes has no room for the %d-byte command header",
			ErrWire, len(payload), commandHeaderLen))
	}
	putCommandHeader(payload, cmdResult, 0, co.cfg.now().UnixNano(), len(payload)-commandHeaderLen)
	reply, err := co.runner.Propose(payload, proposeTimeout)
	return co.render(resp, reply, err)
}

// propose commits the command and renders the FSM's reply. On a non-leader
// replica the response is a StatusRedirect carrying the leader hint, so the
// worker can re-aim instead of stalling.
func (co *Coordinator) propose(resp *netblock.Response, c command) *netblock.Response {
	reply, err := co.proposeRaw(c)
	return co.render(resp, reply, err)
}

// render turns a proposal outcome into the wire response.
func (co *Coordinator) render(resp *netblock.Response, reply any, err error) *netblock.Response {
	if err != nil {
		var nle *consensus.NotLeaderError
		if errors.As(err, &nle) {
			resp.Status = netblock.StatusRedirect
			resp.Payload = mustJSON(RedirectReply{Leader: nle.Leader, Known: nle.Leader != consensus.None})
			return resp
		}
		resp.Status = netblock.StatusError
		resp.Payload = []byte(err.Error())
		return resp
	}
	switch v := reply.(type) {
	case error:
		resp.Status = netblock.StatusError
		resp.Payload = []byte(v.Error())
	case nil: // heartbeat and drain want no payload
	default:
		resp.Payload = mustJSON(v)
	}
	return resp
}

// Workers returns how many workers are currently registered.
func (co *Coordinator) Workers() int {
	var n int
	co.runner.Read(func() { n = len(co.fsm.workers) })
	return n
}

// Ledger snapshots the dispatch/result accounting for the cross-process
// conservation law.
func (co *Coordinator) Ledger() *invariant.ShardLedger {
	var l *invariant.ShardLedger
	co.runner.Read(func() { l = co.fsm.ledger() })
	return l
}

// Wait blocks until every shard is accounted for (or ctx ends), then merges
// the partials — verifying the fabric accounting law first — and returns the
// final dataset. The merge runs once; concurrent and repeated Waits share
// its result. Any replica whose ledger reached completion can merge: the
// partials were committed through the log, so they are byte-identical
// everywhere.
func (co *Coordinator) Wait(ctx context.Context) (*trace.Dataset, error) {
	select {
	case <-co.fsm.allDone:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	co.mergeOnce.Do(func() {
		var rep invariant.Report
		invariant.CheckFabricAccounting(&rep, co.Ledger())
		if err := rep.Err(); err != nil {
			co.mergeErr = fmt.Errorf("fabric: %w", err)
			return
		}
		parts := make([]*ebs.ShardPartial, 0, len(co.plan))
		co.runner.Read(func() {
			for _, sh := range co.fsm.shards {
				parts = append(parts, sh.partial)
			}
		})
		co.result, co.mergeErr = co.sim.MergeShards(co.cfg.Opts, parts)
	})
	return co.result, co.mergeErr
}
