package consensus

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// chanTransport wires runners directly: Send routes a message to the
// destination runner's Deliver on a fresh goroutine, like the netblock
// transport but without a wire.
type chanTransport struct {
	mu      sync.Mutex
	runners map[int]*Runner
	down    map[int]bool
	wg      sync.WaitGroup
}

func newChanTransport() *chanTransport {
	return &chanTransport{runners: make(map[int]*Runner), down: make(map[int]bool)}
}

func (t *chanTransport) Send(m Message) {
	t.mu.Lock()
	r := t.runners[m.To]
	dead := t.down[m.To] || t.down[m.From]
	t.mu.Unlock()
	if r == nil || dead {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		r.Deliver(m)
	}()
}

func (t *chanTransport) kill(id int) {
	t.mu.Lock()
	t.down[id] = true
	t.mu.Unlock()
}

// countFSM records applied commands.
type countFSM struct {
	mu   sync.Mutex
	cmds [][]byte
}

func (f *countFSM) Apply(index uint64, cmd []byte) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cmds = append(f.cmds, append([]byte(nil), cmd...))
	return len(f.cmds)
}

func (f *countFSM) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.cmds)
}

// startCluster boots n runner-driven replicas on real (fast) tickers.
func startCluster(t *testing.T, n int) (*chanTransport, []*Runner, []*countFSM, *sync.Mutex, *[]int) {
	t.Helper()
	tr := newChanTransport()
	fsms := make([]*countFSM, n)
	runners := make([]*Runner, n)
	var mu sync.Mutex
	var leaders []int
	for id := 0; id < n; id++ {
		fsms[id] = &countFSM{}
		node := NewNode(Config{ID: id, Peers: n, BootstrapLeader: 0, Seed: 7})
		runners[id] = NewRunner(RunnerConfig{
			Node:      node,
			FSM:       fsms[id],
			Transport: tr,
			TickEvery: 2 * time.Millisecond,
			OnBecomeLeader: func(term uint64, id int) {
				mu.Lock()
				leaders = append(leaders, id)
				mu.Unlock()
			},
		})
		tr.mu.Lock()
		tr.runners[id] = runners[id]
		tr.mu.Unlock()
	}
	for _, r := range runners {
		r.Start()
	}
	t.Cleanup(func() {
		for _, r := range runners {
			r.Stop()
		}
		tr.wg.Wait()
	})
	return tr, runners, fsms, &mu, &leaders
}

// TestRunnerReplicatesAndFailsOver is the end-to-end runner test: proposals
// on the bootstrap leader apply everywhere; killing the leader elects
// replica 1, which then accepts proposals; the dead leader's runner rejects
// everything with ErrStopped; followers answer ErrNotLeader with a hint.
func TestRunnerReplicatesAndFailsOver(t *testing.T) {
	tr, runners, fsms, mu, leaders := startCluster(t, 3)

	if _, err := runners[1].Propose([]byte("nope"), time.Second); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower Propose error = %v, want ErrNotLeader", err)
	} else {
		var nle *NotLeaderError
		if !errors.As(err, &nle) || nle.Leader != 0 {
			t.Fatalf("follower redirect hint = %v, want leader 0", err)
		}
	}

	for i := 0; i < 5; i++ {
		reply, err := runners[0].Propose([]byte{byte(i)}, 2*time.Second)
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		if reply.(int) != i+1 {
			t.Fatalf("propose %d reply = %v, want %d", i, reply, i+1)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		return fsms[1].count() == 5 && fsms[2].count() == 5
	}, "followers did not apply all 5 commands")

	// Kill the leader: transport drops its traffic, runner stops.
	tr.kill(0)
	runners[0].Stop()
	if _, err := runners[0].Propose([]byte("dead"), time.Second); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped Propose error = %v, want ErrStopped", err)
	}

	waitFor(t, 10*time.Second, func() bool {
		var isLeader bool
		runners[1].Read(func() { isLeader = runners[1].node.State() == Leader })
		return isLeader
	}, "replica 1 did not take over")

	if _, err := runners[1].Propose([]byte("after"), 2*time.Second); err != nil {
		t.Fatalf("propose on new leader: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return fsms[2].count() == 6 }, "replica 2 did not apply post-failover command")

	mu.Lock()
	defer mu.Unlock()
	want := []int{0, 1}
	if len(*leaders) != 2 || (*leaders)[0] != 0 || (*leaders)[1] != 1 {
		t.Fatalf("leadership transitions = %v, want %v", *leaders, want)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}
