package consensus

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Applier is the deterministic replicated state machine: Apply consumes one
// committed command (in log order, exactly once per index) and returns the
// reply the proposer should see. Apply runs under the Runner's lock, so it
// must not call back into the Runner.
type Applier interface {
	Apply(index uint64, cmd []byte) any
}

// Transport delivers one message toward its destination. It may deliver
// synchronously into the destination's Runner.Deliver: a Runner never sends
// while holding its lock.
type Transport interface {
	Send(m Message)
}

// Runner errors.
var (
	// ErrNotLeader reports a proposal on a follower.
	ErrNotLeader = errors.New("consensus: not the leader")
	// ErrStopped reports the runner was shut down.
	ErrStopped = errors.New("consensus: node stopped")
	// ErrCommitTimeout reports the proposal did not commit in time
	// (typically: no quorum reachable).
	ErrCommitTimeout = errors.New("consensus: commit timed out")
)

// RunnerConfig wires a Runner.
type RunnerConfig struct {
	Node      *Node
	FSM       Applier
	Transport Transport // may be nil for a single-node group
}

// Runner drives a Node: it applies committed entries to the FSM and parks
// proposers until their entry commits. It is the only goroutine-safe entry
// point to a node.
type Runner struct {
	mu      sync.Mutex
	node    *Node
	fsm     Applier
	tr      Transport
	waiters map[uint64]chan any // receives the FSM reply, or an error
	stopped bool
}

// NewRunner constructs a Runner. It sends nothing until it is delivered to
// or proposed on.
func NewRunner(cfg RunnerConfig) *Runner {
	return &Runner{node: cfg.Node, fsm: cfg.FSM, tr: cfg.Transport, waiters: make(map[uint64]chan any)}
}

// Stop shuts the runner down: every parked proposer fails with ErrStopped,
// and all later calls are rejected.
func (r *Runner) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	for idx, ch := range r.waiters {
		delete(r.waiters, idx)
		ch <- ErrStopped
	}
}

// Deliver feeds one incoming message into the node and sends whatever the
// node wants transmitted in response.
func (r *Runner) Deliver(m Message) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	out := r.node.Step(m)
	r.applyLocked()
	r.mu.Unlock()
	r.send(out)
}

// Propose appends cmd to the replicated log and blocks until the entry
// commits and applies, returning the FSM's reply. On a follower it fails at
// once with ErrNotLeader.
func (r *Runner) Propose(cmd []byte, timeout time.Duration) (any, error) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return nil, ErrStopped
	}
	idx, msgs, ok := r.node.Propose(cmd)
	if !ok {
		r.mu.Unlock()
		return nil, ErrNotLeader
	}
	ch := make(chan any, 1)
	r.waiters[idx] = ch
	r.applyLocked() // single-node groups commit right here
	r.mu.Unlock()
	r.send(msgs)

	// Single-node groups (and a synchronous transport, whose acks arrive
	// inside send) commit before this point: the reply is already
	// buffered, so take it without paying for a timer on every proposal.
	select {
	case v := <-ch:
		return reply(v)
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case v := <-ch:
		return reply(v)
	case <-timer.C:
		r.mu.Lock()
		delete(r.waiters, idx)
		r.mu.Unlock()
		return nil, fmt.Errorf("%w (index %d)", ErrCommitTimeout, idx)
	}
}

func reply(v any) (any, error) {
	if err, isErr := v.(error); isErr {
		return nil, err
	}
	return v, nil
}

// applyLocked applies newly committed entries and resolves their waiters.
func (r *Runner) applyLocked() {
	for _, e := range r.node.TakeCommitted() {
		rep := r.fsm.Apply(e.Index, e.Cmd)
		if ch, ok := r.waiters[e.Index]; ok {
			delete(r.waiters, e.Index)
			ch <- rep
		}
	}
}

func (r *Runner) send(msgs []Message) {
	if r.tr == nil {
		return
	}
	for _, m := range msgs {
		r.tr.Send(m)
	}
}
