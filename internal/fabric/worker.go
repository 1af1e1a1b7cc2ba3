package fabric

import (
	"context"
	"fmt"
	"net"
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
	// Dial opens the control-plane connection to the coordinator.
	Dial func() (net.Conn, error)
	// Drain, when non-nil, asks the worker for an orderly exit: it finishes
	// (and uploads) the shard it is executing, deregisters with the
	// coordinator, and returns nil.
	Drain <-chan struct{}

	// Set only by this package's tests, which shorten both.

	// callTimeout bounds each control-plane RPC (10s). A coordinator
	// connection that dies silently between AssignShard and ShardResult
	// fails the call — and triggers a redial — instead of hanging the worker
	// until the coordinator's liveness reaper forgets it.
	callTimeout time.Duration
	// failoverWindow bounds how long the worker keeps redialing the
	// coordinator after a control-plane failure before giving up (15s).
	failoverWindow time.Duration
}

// ctrlLink is the worker's resilient control-plane connection: a netblock
// redialer to the coordinator, each call retried until the failover window
// closes. The client serializes exchanges — the shard loop and the heartbeat
// goroutine share it — and redials inside its own lock, so a redial can
// never race an in-flight exchange.
type ctrlLink struct {
	cl     *netblock.Client
	window time.Duration
}

func newCtrlLink(wc WorkerConfig) (*ctrlLink, error) {
	if wc.Dial == nil {
		return nil, fmt.Errorf("fabric: worker needs Dial")
	}
	timeout := wc.callTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	window := wc.failoverWindow
	if window <= 0 {
		window = 15 * time.Second
	}
	return &ctrlLink{cl: netblock.NewRedialer(wc.Dial, netblock.Config{Timeout: timeout}), window: window}, nil
}

// call performs one control-plane RPC, retrying until it succeeds or the
// failover window closes. A transport error or a timed-out exchange drops
// the connection, so its retry runs on a fresh one; a refused exchange
// (StatusError) left its frame boundary intact and retries on the same one.
func (l *ctrlLink) call(ctx context.Context, op netblock.OpCode, payload ...[]byte) ([]byte, error) {
	deadline := time.Now().Add(l.window)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		raw, err := l.cl.Call(op, payload...)
		if err == nil {
			return raw, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fabric: control plane unreachable for %v: %w", l.window, err)
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
// shard results are bit-identical to the coordinator simulating the same VDs itself. A
// lost or refused exchange is redialed and retried within the failover
// window; a coordinator that stays gone past it ends the worker with an
// error.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	link, err := newCtrlLink(wc)
	if err != nil {
		return err
	}
	defer link.cl.Close()

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
// returned, on every path — a retransmission after a redial writes them
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
