package consensus

import (
	"errors"
	"testing"
	"time"
)

// syncFan joins in-process runners as the benchmark ladder does: Send
// delivers straight into the destination, so a proposal commits inside
// Propose without a socket.
type syncFan struct{ runners []*Runner }

func (f *syncFan) Send(m Message) { f.runners[m.To].Deliver(m) }

// logFSM records applied commands; the reply is the command count so far.
type logFSM struct{ cmds []string }

func (f *logFSM) Apply(index uint64, cmd []byte) any {
	f.cmds = append(f.cmds, string(cmd))
	return len(f.cmds)
}

// TestRunnerReplicatesOnSyncFan: proposals on the leader apply on every
// replica, in order; a follower refuses with ErrNotLeader; a stopped
// runner refuses with ErrStopped.
func TestRunnerReplicatesOnSyncFan(t *testing.T) {
	const peers = 3
	fan := &syncFan{runners: make([]*Runner, peers)}
	fsms := make([]*logFSM, peers)
	for id := range fan.runners {
		fsms[id] = &logFSM{}
		fan.runners[id] = NewRunner(RunnerConfig{
			Node:      NewNode(Config{ID: id, Peers: peers, BootstrapLeader: 0}),
			FSM:       fsms[id],
			Transport: fan,
		})
	}
	leader := fan.runners[0]

	if _, err := fan.runners[1].Propose([]byte("nope"), time.Second); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower Propose error = %v, want ErrNotLeader", err)
	}
	want := []string{"a", "b", "c"}
	for i, cmd := range want {
		reply, err := leader.Propose([]byte(cmd), time.Second)
		if err != nil {
			t.Fatalf("propose %q: %v", cmd, err)
		}
		if reply != i+1 {
			t.Fatalf("propose %q reply = %v, want %d", cmd, reply, i+1)
		}
	}
	// A follower learns an entry's commit from the next append, so it has
	// applied all but the last.
	for id, f := range fsms {
		n := len(want)
		if id != 0 {
			n--
		}
		if len(f.cmds) != n {
			t.Fatalf("replica %d applied %q, want %q", id, f.cmds, want[:n])
		}
		for i := range f.cmds {
			if f.cmds[i] != want[i] {
				t.Fatalf("replica %d applied %q, want %q", id, f.cmds, want[:n])
			}
		}
	}

	for _, r := range fan.runners {
		r.Stop()
	}
	if _, err := leader.Propose([]byte("late"), time.Second); !errors.Is(err, ErrStopped) {
		t.Fatalf("Propose after Stop error = %v, want ErrStopped", err)
	}
}

// TestRunnerWithoutQuorum: a leader that hears no ack times out, and Stop
// fails a proposer parked on it.
func TestRunnerWithoutQuorum(t *testing.T) {
	r := NewRunner(RunnerConfig{Node: NewNode(cfg3(0)), FSM: &logFSM{}})
	if _, err := r.Propose([]byte("a"), time.Millisecond); !errors.Is(err, ErrCommitTimeout) {
		t.Fatalf("Propose without acks error = %v, want ErrCommitTimeout", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Propose([]byte("b"), time.Minute)
		done <- err
	}()
	for parked := false; !parked; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		parked = len(r.waiters) == 1
		r.mu.Unlock()
	}
	r.Stop()
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Fatalf("parked Propose error = %v, want ErrStopped", err)
	}
}
