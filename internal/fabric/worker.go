package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ebslab/internal/ebs"
	"ebslab/internal/netblock"
)

// waitBackoff is how long a worker told AssignWait sleeps before asking
// again. The coordinator has already held the request assignHoldFor waiting
// for something placeable, so this is a back-off between long polls, not a
// polling interval worth tuning.
const waitBackoff = 25 * time.Millisecond

// WorkerConfig describes one worker process.
type WorkerConfig struct {
	// Dial opens the control-plane connection to a single coordinator
	// (legacy single-replica form; equivalent to a one-element Dials).
	Dial func() (net.Conn, error)
	// Dials lists the control-plane endpoints of every coordinator replica,
	// indexed by replica ID. The worker follows leader redirects across them
	// and fails over to the next replica when a connection dies.
	Dials []func() (net.Conn, error)
	// Drain, when non-nil, asks the worker for an orderly exit: it finishes
	// (and uploads) the shard it is executing, deregisters with the
	// coordinator, and returns nil.
	Drain <-chan struct{}

	// Set only inside this package: ReplicaSet.Run's in-process workers
	// shorten callTimeout, and the tests both timings.

	// callTimeout bounds each control-plane RPC (10s). A coordinator
	// connection that dies silently between AssignShard and ShardResult
	// fails the call — and triggers failover — instead of hanging the worker
	// until the coordinator's liveness reaper forgets it.
	callTimeout time.Duration
	// failoverWindow bounds how long the worker hunts across replicas for a
	// live leader after a control-plane failure before giving up (15s; spans
	// a leader election comfortably).
	failoverWindow time.Duration
}

// ctrlLink is the worker's resilient control-plane connection: one live
// netblock client over whichever replica currently answers, swapped on
// redirect hints and transport failures. Calls are serialized — the shard
// loop and the heartbeat goroutine share the link — so a replica swap can
// never race an in-flight exchange.
type ctrlLink struct {
	dials   []func() (net.Conn, error)
	timeout time.Duration
	window  time.Duration

	mu  sync.Mutex
	cl  *netblock.Client
	cur int
}

func newCtrlLink(wc WorkerConfig) (*ctrlLink, error) {
	dials := wc.Dials
	if len(dials) == 0 && wc.Dial != nil {
		dials = []func() (net.Conn, error){wc.Dial}
	}
	if len(dials) == 0 {
		return nil, fmt.Errorf("fabric: worker needs Dial or Dials")
	}
	timeout := wc.callTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	window := wc.failoverWindow
	if window <= 0 {
		window = 15 * time.Second
	}
	return &ctrlLink{dials: dials, timeout: timeout, window: window}, nil
}

// dropLocked abandons the current client (the connection is dead or aimed
// at the wrong replica).
func (l *ctrlLink) dropLocked() {
	if l.cl != nil {
		l.cl.Close()
		l.cl = nil
	}
}

func (l *ctrlLink) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropLocked()
}

// call performs one control-plane RPC, redialing and failing over across
// replicas until it succeeds or the failover window closes. A StatusRedirect
// answer re-aims the link at the hinted leader; a transport failure advances
// round-robin to the next replica.
func (l *ctrlLink) call(ctx context.Context, op netblock.OpCode, payload ...[]byte) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	deadline := time.Now().Add(l.window)
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if l.cl == nil {
			conn, err := l.dials[l.cur]()
			if err != nil {
				lastErr = err
				l.cur = (l.cur + 1) % len(l.dials)
			} else {
				l.cl = netblock.NewClientConfig(conn, netblock.Config{Timeout: l.timeout})
			}
		}
		if l.cl != nil {
			raw, err := l.cl.Call(op, payload...)
			if err == nil {
				return raw, nil
			}
			lastErr = err
			var re *netblock.RedirectError
			if errors.As(err, &re) {
				// The replica answered but is not the leader. Follow a
				// usable hint; otherwise (mid-election) re-ask shortly —
				// any replica learns the outcome.
				if r, ok := decodeRedirect(re.Info); ok && r.Known &&
					r.Leader >= 0 && r.Leader < len(l.dials) && r.Leader != l.cur {
					l.dropLocked()
					l.cur = r.Leader
					continue
				}
			} else {
				l.dropLocked()
				l.cur = (l.cur + 1) % len(l.dials)
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fabric: control plane unreachable for %v: %w", l.window, lastErr)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// RunWorker joins the coordinator's fleet, executes shards until the run
// completes (or ctx ends / Drain fires), and deregisters. The worker
// opens the coordinator's run spec (same fleet recipe, same scenario), so its
// shard results are bit-identical to the coordinator simulating the same VDs itself. With
// a replicated control plane (Dials), the worker transparently follows
// leader redirects and rides out a coordinator death mid-run.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	link, err := newCtrlLink(wc)
	if err != nil {
		return err
	}
	defer link.close()

	raw, err := link.call(ctx, netblock.OpJoinFleet, nil)
	if err != nil {
		return fmt.Errorf("fabric: join: %w", err)
	}
	var join JoinReply
	if err := fromJSON(raw, &join); err != nil {
		return err
	}
	sim, opts, err := join.open()
	if err != nil {
		return fmt.Errorf("fabric: worker: %w", err)
	}
	me := mustJSON(workerMsg{WorkerID: join.WorkerID})

	// Heartbeats ride their own goroutine so a long shard simulation cannot
	// starve liveness; the link serializes them against control calls.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		every := time.Duration(join.HeartbeatMS) * time.Millisecond
		if every <= 0 {
			every = 500 * time.Millisecond
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				link.call(hbCtx, netblock.OpHeartbeat, me) //nolint:errcheck — liveness is best-effort
			}
		}
	}()

	drainNow := func() error {
		if _, err := link.call(ctx, netblock.OpDrain, me); err != nil {
			return fmt.Errorf("fabric: drain: %w", err)
		}
		return nil
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wc.Drain:
			return drainNow()
		default:
		}
		raw, err := link.call(ctx, netblock.OpAssignShard, me)
		if err != nil {
			return fmt.Errorf("fabric: assign: %w", err)
		}
		var a AssignReply
		if err := fromJSON(raw, &a); err != nil {
			return err
		}
		switch a.Status {
		case AssignDone:
			return drainNow()
		case AssignWait:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-wc.Drain:
				return drainNow()
			case <-time.After(waitBackoff):
			}
		case AssignShard:
			if err := runShard(ctx, link, sim, opts, join.WorkerID, a); err != nil {
				return err
			}
			// An orderly drain completes the current shard first — which just
			// happened — so honor it before asking for more work.
			select {
			case <-wc.Drain:
				return drainNow()
			default:
			}
		default:
			return fmt.Errorf("%w: assign status %q", ErrWire, a.Status)
		}
	}
}

// runShard simulates shard a and uploads its result. The payload goes onto
// the connection in parts (resultParts): the frame's head, the run's tracer
// chunks as they are and its tail, so no buffer holds the frame on this
// side. The chunks go back to the tracer pool only once the upload has
// returned, on every path — a retransmission after a failover writes them
// again.
func runShard(ctx context.Context, link *ctrlLink, sim *ebs.Sim, opts ebs.Options, workerID uint64, a AssignReply) error {
	p, err := sim.RunShard(ctx, opts, a.Lo, a.Hi)
	if err != nil {
		return fmt.Errorf("fabric: shard %d: %w", a.Shard, err)
	}
	defer p.Release()
	parts, err := resultParts(workerID, a.Shard, p)
	if err != nil {
		return err
	}
	if _, err := link.call(ctx, netblock.OpShardResult, parts...); err != nil {
		return fmt.Errorf("fabric: upload shard %d: %w", a.Shard, err)
	}
	return nil
}
