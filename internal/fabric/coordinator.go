// Package fabric is the distributed simulation control plane: a coordinator
// partitions the synthetic fleet into VD-disjoint shards, dispatches them to
// worker processes over the netblock protocol's fabric ops (JoinFleet,
// AssignShard, ShardResult, Heartbeat, Drain), and deterministically merges
// the shard partials into a dataset byte-identical to a single-process run —
// for any worker count, and across worker crashes, stragglers, and duplicate
// results. There is one coordinator, and its shard ledger is plain state
// under the coordinator's mutex; when the coordinator dies the run fails,
// and each worker gives up once its failover window has passed. See
// DESIGN.md, "Distributed execution". The shard-result frame (msg.go) is a
// walk over the internal/wire cursor; DESIGN.md, "Wire formats" lists its
// caps.
package fabric

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ebslab/internal/cluster"
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

	// The timing below is fixed outside this package's tests, which shorten
	// it to stage reaping and speculation in milliseconds.

	// heartbeatEvery is the beat interval workers are told to use (500ms).
	heartbeatEvery time.Duration
	// livenessTimeout declares a silent worker dead and requeues its shards
	// (4 * heartbeatEvery).
	livenessTimeout time.Duration
	// speculateAfter re-dispatches a still-running shard to an idle worker
	// once the shard has been out that long (30s; straggler mitigation).
	// At-most-once accounting keeps duplicate results safe.
	speculateAfter time.Duration
	// now overrides the clock in tests. Each handler stamps the ledger call
	// it makes with it.
	now func() time.Time
}

// assignHoldFor is how long an AssignShard request with nothing placeable is
// held server-side waiting for availability to change (a result landing, a
// shard requeuing) before the worker is told to back off and retry.
// Event-driven wakeup keeps an idle worker from sleeping out a back-off after
// the run's last result arrives.
const assignHoldFor = 50 * time.Millisecond

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
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Coordinator runs the control plane. It implements netblock.Handler: mount
// it on a netblock.Server (NewHandlerServer) over any listener — TCP for
// real deployments, Loopback for in-process fabrics. Each handler stamps the
// coordinator's clock and makes its ledger call under the mutex.
type Coordinator struct {
	cfg  Config
	sim  *ebs.Sim
	plan []cluster.ShardRange

	mu     sync.Mutex
	ledger *shardLedger // guarded by mu

	stopOnce sync.Once
	stopped  chan struct{}

	mergeOnce sync.Once
	result    *trace.Dataset
	mergeErr  error
}

// NewCoordinator opens the spec, plans the shards from its per-disk costs, and
// returns a coordinator ready to be served.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	// Fail at construction, not on every worker: the spec must be something
	// shards on other processes can run, and it must open (Open validates it
	// before it generates the fleet).
	spec := cfg.runSpec()
	if err := spec.Distributable(); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
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
	return &Coordinator{
		cfg:     cfg,
		sim:     sim,
		plan:    plan,
		ledger:  newShardLedger(cfg, plan, shardSketch),
		stopped: make(chan struct{}),
	}, nil
}

// Plan exposes the shard plan, indexed by shard ID: cluster.PlanShardsByCost
// over the run's ebs.Sim.DiskCosts, so the heaviest shard has ID 0 and is
// dispatched first.
func (co *Coordinator) Plan() []cluster.ShardRange { return co.plan }

// Stop shuts the coordinator down: every later control-plane request is
// refused, and an assign held waiting for work is answered at once.
func (co *Coordinator) Stop() { co.stopOnce.Do(func() { close(co.stopped) }) }

// Handle implements netblock.Handler for the five worker-facing ops.
func (co *Coordinator) Handle(req *netblock.Request) *netblock.Response {
	resp := &netblock.Response{ID: req.ID, Status: netblock.StatusOK}
	select {
	case <-co.stopped:
		return render(resp, nil, fmt.Errorf("fabric: coordinator stopped"))
	default:
	}
	switch req.Op {
	case netblock.OpJoinFleet:
		co.mu.Lock()
		j := co.ledger.join(co.cfg.now())
		co.mu.Unlock()
		return render(resp, j, nil)
	case netblock.OpAssignShard:
		var m workerMsg
		if err := fromJSON(req.Payload, &m); err != nil {
			return render(resp, nil, err)
		}
		return co.assignHold(resp, m.WorkerID)
	case netblock.OpShardResult:
		// Decoding is the most expensive control-plane step: it runs before
		// the lock, so concurrent uploads decode in parallel.
		workerID, shardID, p, err := decodeResult(req.Payload)
		if err != nil {
			return render(resp, nil, err)
		}
		co.mu.Lock()
		err = co.ledger.result(workerID, shardID, p, co.cfg.now())
		co.mu.Unlock()
		if err != nil {
			return render(resp, nil, err)
		}
		return resp // no payload: a duplicate is acknowledged like the first
	case netblock.OpHeartbeat:
		var m workerMsg
		if err := fromJSON(req.Payload, &m); err != nil {
			return render(resp, nil, err)
		}
		co.mu.Lock()
		now := co.cfg.now()
		co.ledger.touch(m.WorkerID, now)
		co.ledger.reap(now)
		co.mu.Unlock()
		return resp // no payload
	case netblock.OpDrain:
		var m workerMsg
		if err := fromJSON(req.Payload, &m); err != nil {
			return render(resp, nil, err)
		}
		co.mu.Lock()
		co.ledger.drain(m.WorkerID)
		co.mu.Unlock()
		return resp // no payload
	}
	return render(resp, nil, fmt.Errorf("fabric: op %s is not a control-plane request", req.Op))
}

// assignHold asks the ledger for a shard and, when it has nothing placeable,
// holds the reply instead of bouncing AssignWait straight back: it parks on
// the ledger's availability channel and asks again the moment a result lands
// or a shard requeues, up to assignHoldFor. An idle worker at the tail of a
// run gets its AssignDone (or the freed shard) with sub-millisecond latency
// instead of discovering it a back-off later — which is the difference
// between the dispatch benchmark's p50 and a 25ms sleep. Only this handler
// goroutine blocks; errors and Stop break out.
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
		// Take the channel under the same lock as the assign: any
		// availability change after it closes this channel, so a wakeup can
		// never slip between the assign and the park.
		co.mu.Lock()
		avail := co.ledger.avail
		a, err := co.ledger.assign(workerID, co.cfg.now())
		co.mu.Unlock()
		if err != nil || a.Status != AssignWait {
			return render(resp, a, err)
		}
		if hold == nil {
			hold = time.NewTimer(assignHoldFor)
		}
		select {
		case <-avail:
		case <-hold.C:
			return render(resp, a, nil)
		case <-co.stopped:
			return render(resp, a, nil)
		}
	}
}

// render turns a ledger call's outcome into the wire response: an error as
// StatusError with its text, a reply as JSON.
func render(resp *netblock.Response, reply any, err error) *netblock.Response {
	if err != nil {
		resp.Status = netblock.StatusError
		resp.Payload = []byte(err.Error())
		return resp
	}
	resp.Payload = mustJSON(reply)
	return resp
}

// Workers returns how many workers are currently registered.
func (co *Coordinator) Workers() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.ledger.workers)
}

// Ledger snapshots the dispatch/result accounting for the cross-process
// conservation law.
func (co *Coordinator) Ledger() *invariant.ShardLedger {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.ledger.snapshot()
}

// Wait blocks until every shard is accounted for (or ctx ends), then merges
// the partials — verifying the fabric accounting law first — and returns the
// final dataset. The merge runs once; concurrent and repeated Waits share
// its result.
func (co *Coordinator) Wait(ctx context.Context) (*trace.Dataset, error) {
	select {
	case <-co.ledger.allDone:
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
		co.mu.Lock()
		for _, sh := range co.ledger.shards {
			parts = append(parts, sh.partial)
		}
		co.mu.Unlock()
		co.result, co.mergeErr = co.sim.MergeShards(co.cfg.Opts, parts)
	})
	return co.result, co.mergeErr
}
