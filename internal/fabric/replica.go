package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/consensus"
	"ebslab/internal/invariant"
	"ebslab/internal/netblock"
	"ebslab/internal/trace"
)

// ReplicaSet runs N coordinator replicas in-process, each served over its
// own Loopback listener, wired together by a synchronous consensus fan.
// Workers dial any replica (Dials) and are redirected to the leader. The
// set consumes the chaos plan's leader-kill windows: when the replicated
// ledger accepts its AfterResults-th shard result, whichever replica leads
// is killed — runner stopped, listener closed — and the run must complete
// under a successor with a byte-identical dataset.
type ReplicaSet struct {
	n    int
	cos  []*Coordinator
	lbs  []*Loopback
	srvs []*netblock.Server
	// sched is the expanded chaos schedule (nil without a plan); its
	// LeaderKills drive the kill queue.
	sched *chaos.Schedule

	mu           sync.Mutex
	transitions  []invariant.LeaderTransition
	kills        []chaos.LeaderKill
	nextKill     int
	counts       []int // accepted results applied, per replica
	killed       []bool
	killWG       sync.WaitGroup
	closeOnce    sync.Once
	holdTeardown func() // when set, a kill's teardown waits for it to return
}

// replicaFan is the in-process consensus transport: Send delivers the
// message synchronously into the destination replica. Synchronous delivery
// keeps every follower's log flush with the leader at the instant a kill
// fires, which is what makes the post-kill election order (and so the
// golden leadership-transition log) deterministic. No lock is held across
// Send — the consensus runner emits messages outside its lock — so the
// delivery chain cannot deadlock.
type replicaFan struct {
	rs *ReplicaSet
}

func (f *replicaFan) Send(m consensus.Message) {
	if m.To < 0 || m.To >= f.rs.n {
		return
	}
	f.rs.cos[m.To].Deliver(m) // no-op on a stopped (killed) replica
}

// MaxLeaderKills is how many leader kills a control plane of `replicas`
// replicas survives: each kill removes a replica for good, and the survivors
// must still form a quorum of the original set to elect a successor.
func MaxLeaderKills(replicas int) int { return (replicas - 1) / 2 }

// NewReplicaSet builds and serves `replicas` coordinator replicas of cfg.
// cfg's replication fields (ReplicaID, Replicas, Transport) are overwritten
// per replica; everything else — fleet, options, shard plan, liveness knobs —
// is shared, which is what makes every replica's FSM identical.
func NewReplicaSet(cfg Config, replicas int) (*ReplicaSet, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("fabric: replica set needs >= 1 replicas, got %d", replicas)
	}
	if cfg.Opts.Chaos != nil {
		if kills, max := cfg.Opts.Chaos.LeaderKills, MaxLeaderKills(replicas); kills > max {
			return nil, fmt.Errorf("fabric: a %d-replica control plane survives at most %d leader kills, the chaos plan schedules %d", replicas, max, kills)
		}
	}
	rs := &ReplicaSet{
		n:      replicas,
		cos:    make([]*Coordinator, replicas),
		counts: make([]int, replicas),
		killed: make([]bool, replicas),
	}
	fan := &replicaFan{rs: rs}
	for i := range rs.cos {
		c := cfg
		c.ReplicaID = i
		c.Replicas = replicas
		c.Transport = fan
		c.onLeader = rs.recordLeader
		id := i
		c.onApplied = func(kind uint8, reply any, leader bool) {
			rs.applied(id, kind, reply, leader)
		}
		co, err := newCoordinator(c)
		if err != nil {
			return nil, err // nothing is running yet
		}
		rs.cos[i] = co
	}
	// Expand the chaos plan's leader-kill windows against the shard plan.
	// The trigger counts are a pure function of (seed, shard count), so the
	// same study kills its leader at the same ledger position every run.
	if opts := cfg.Opts; opts.Chaos != nil && opts.Chaos.LeaderKills > 0 {
		rs.sched = opts.Chaos.Expand(cfg.Fleet.Seed, chaos.Shape{Shards: len(rs.cos[0].Plan())})
		rs.kills = rs.sched.LeaderKills
	}
	// Serve and tick only now that rs.cos is complete: a ticking replica
	// sends through the fan from its own goroutine, and the fan indexes
	// rs.cos without a lock.
	for _, co := range rs.cos {
		lb := NewLoopback()
		srv := netblock.NewHandlerServer(co)
		go srv.Serve(lb) //nolint:errcheck — ends with the loopback
		rs.lbs = append(rs.lbs, lb)
		rs.srvs = append(rs.srvs, srv)
	}
	for _, co := range rs.cos {
		co.runner.Start()
	}
	return rs, nil
}

// recordLeader appends one entry to the leadership-transition log. Only the
// winning replica fires this hook, so the log is the run's election history.
func (rs *ReplicaSet) recordLeader(term uint64, id int) {
	rs.mu.Lock()
	rs.transitions = append(rs.transitions, invariant.LeaderTransition{Term: term, Leader: id})
	rs.mu.Unlock()
}

// applied is every replica's post-apply hook: it counts accepted results in
// commit order and, when the next kill window's trigger count is reached on
// the replica that currently leads, consumes the window and kills that
// replica. The kill takes effect here: the leader's runner halts inline, so
// it commits nothing more and the rest of the run needs a successor. The
// teardown runs asynchronously (it waits for the runner's ticker, which may
// be the goroutine running this callback).
func (rs *ReplicaSet) applied(id int, kind uint8, reply any, leader bool) {
	if kind != cmdResult {
		return
	}
	rr, ok := reply.(resultReply)
	if !ok || !rr.Accepted {
		return
	}
	rs.mu.Lock()
	rs.counts[id]++
	kill := leader && !rs.killed[id] && rs.nextKill < len(rs.kills) &&
		rs.counts[id] >= rs.kills[rs.nextKill].AfterResults
	if kill {
		rs.nextKill++
		rs.killed[id] = true
		rs.killWG.Add(1)
	}
	rs.mu.Unlock()
	if kill {
		rs.cos[id].runner.Halt()
		go func() {
			defer rs.killWG.Done()
			if rs.holdTeardown != nil {
				rs.holdTeardown()
			}
			rs.kill(id)
		}()
	}
}

// kill tears one replica down the hard way: consensus runner stopped (every
// parked proposal fails), listener closed (workers' connections die), server
// drained. The surviving replicas elect a successor and the run continues
// from the replicated ledger.
func (rs *ReplicaSet) kill(id int) {
	rs.cos[id].Stop()
	rs.lbs[id].Close()
	rs.srvs[id].Close()
}

// Dials returns one control-plane dialer per replica, indexed by replica ID
// (the order leader redirects refer to).
func (rs *ReplicaSet) Dials() []func() (net.Conn, error) {
	out := make([]func() (net.Conn, error), rs.n)
	for i, lb := range rs.lbs {
		out[i] = lb.Dial
	}
	return out
}

// Transitions snapshots the leadership history.
func (rs *ReplicaSet) Transitions() []invariant.LeaderTransition {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]invariant.LeaderTransition, len(rs.transitions))
	copy(out, rs.transitions)
	return out
}

// KillsExecuted reports how many leader-kill windows have fired.
func (rs *ReplicaSet) KillsExecuted() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.nextKill
}

// Schedule returns the expanded chaos schedule driving the kill queue, or
// nil when the run has no leader-kill plan.
func (rs *ReplicaSet) Schedule() *chaos.Schedule { return rs.sched }

// Wait blocks until some replica's ledger holds every shard result (or ctx
// ends), verifies the fabric accounting and leadership-continuity laws, and
// merges that replica's partials into the final dataset.
func (rs *ReplicaSet) Wait(ctx context.Context) (*trace.Dataset, error) {
	done := make(chan int, rs.n)
	for i, co := range rs.cos {
		go func(i int, ch <-chan struct{}) {
			select {
			case <-ch:
				done <- i
			case <-ctx.Done():
			}
		}(i, co.DoneCh())
	}
	var idx int
	select {
	case idx = <-done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	// Let any in-flight kill finish so the leadership log is complete
	// before the continuity law reads it.
	rs.killWG.Wait()
	ds, err := rs.cos[idx].Wait(ctx)
	if err != nil {
		return nil, err
	}
	var rep invariant.Report
	invariant.CheckLeadershipContinuity(&rep, rs.n, rs.Transitions())
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	return ds, nil
}

// Run executes the study on `workers` in-process workers dialing every
// replica, and returns Wait's merged dataset once the workers have observed
// AssignDone and drained against the still-open control plane (Close tears
// the listeners down). It fails on the first worker error that is not the
// context's cancellation, and unless every scheduled leader kill fired.
func (rs *ReplicaSet) Run(ctx context.Context, workers int) (*trace.Dataset, error) {
	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorker(ctx, WorkerConfig{Dials: rs.Dials(), callTimeout: 2 * time.Second})
		}(i)
	}
	ds, err := rs.Wait(ctx)
	if err != nil {
		rs.Close() // unblock workers parked on a control plane that will not finish
		wg.Wait()
		return nil, err
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil && !errors.Is(werr, context.Canceled) {
			return nil, fmt.Errorf("fabric: worker %d: %w", i, werr)
		}
	}
	if rs.sched != nil && rs.KillsExecuted() != len(rs.sched.LeaderKills) {
		return nil, fmt.Errorf("fabric: %d of %d scheduled leader kills fired", rs.KillsExecuted(), len(rs.sched.LeaderKills))
	}
	return ds, nil
}

// Close stops every replica that is still alive.
func (rs *ReplicaSet) Close() {
	rs.closeOnce.Do(func() {
		rs.killWG.Wait()
		for i := range rs.cos {
			rs.mu.Lock()
			dead := rs.killed[i]
			rs.killed[i] = true
			rs.mu.Unlock()
			if dead {
				continue
			}
			rs.kill(i)
		}
	})
}

// --- TCP peer transport -----------------------------------------------------

// PeerTransport carries consensus messages between coordinator replicas over
// netblock TCP connections: one lazily-dialed client and one sender
// goroutine per peer, fed by a bounded outbox. A full outbox or a dead peer
// drops messages — the consensus protocol's retries (heartbeats, re-votes)
// make delivery eventually succeed without the transport ever blocking the
// replica.
type PeerTransport struct {
	self  int
	addrs []string
	outs  []chan consensus.Message
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// NewPeerTransport wires replica self into a TCP replica set. addrs is
// indexed by replica ID (self's own slot is ignored). Close releases the
// sender goroutines.
func NewPeerTransport(self int, addrs []string) *PeerTransport {
	t := &PeerTransport{
		self:  self,
		addrs: addrs,
		outs:  make([]chan consensus.Message, len(addrs)),
		stop:  make(chan struct{}),
	}
	for i := range addrs {
		if i == self {
			continue
		}
		t.outs[i] = make(chan consensus.Message, 256)
		t.wg.Add(1)
		go t.sendLoop(i)
	}
	return t
}

// Send enqueues a message toward its destination, dropping on overflow.
func (t *PeerTransport) Send(m consensus.Message) {
	if m.To < 0 || m.To >= len(t.outs) || m.To == t.self || t.outs[m.To] == nil {
		return
	}
	select {
	case t.outs[m.To] <- m:
	default:
	}
}

// Close stops the sender goroutines and closes peer connections.
func (t *PeerTransport) Close() {
	t.once.Do(func() { close(t.stop) })
	t.wg.Wait()
}

func (t *PeerTransport) sendLoop(peer int) {
	defer t.wg.Done()
	var cl *netblock.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	for {
		select {
		case <-t.stop:
			return
		case m := <-t.outs[peer]:
			if cl == nil {
				c, err := netblock.DialConfig("tcp", t.addrs[peer], netblock.Config{Timeout: 2 * time.Second})
				if err != nil {
					continue // dropped; the protocol retransmits
				}
				cl = c
			}
			op := netblock.OpAppendEntries
			if m.Type == consensus.MsgVote || m.Type == consensus.MsgVoteResp {
				op = netblock.OpRequestVote
			}
			cl.Call(op, consensus.EncodeMessage(&m)) //nolint:errcheck — a failed send is dropped; the next one redials
		}
	}
}
