package consensus

import (
	"bytes"
	"fmt"
	"testing"
)

// scrambled is a deterministic in-memory group whose network reorders,
// drops and duplicates: every in-flight message sits in one pool, and a
// seeded generator decides what happens next. Nodes are passive state
// machines, so a whole schedule replays from its seed.
type scrambled struct {
	t     *testing.T
	nodes []*Node
	pool  []Message
	state uint64 // splitmix64 state

	// applied[i] is node i's applied command sequence; chosen is the
	// group's: every node must apply the identical command at each
	// position (state-machine safety).
	applied [][][]byte
	chosen  [][]byte
}

func (s *scrambled) intn(n int) int {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int((z ^ z>>31) % uint64(n))
}

// enqueue round-trips each message through the codec, as a transport
// would, and puts it in flight.
func (s *scrambled) enqueue(msgs []Message) {
	for _, m := range msgs {
		dec, err := DecodeMessage(EncodeMessage(&m))
		if err != nil {
			s.t.Fatalf("wire round trip failed for %+v: %v", m, err)
		}
		s.pool = append(s.pool, *dec)
	}
}

// take removes and returns the in-flight message at i.
func (s *scrambled) take(i int) Message {
	m := s.pool[i]
	s.pool[i] = s.pool[len(s.pool)-1]
	s.pool = s.pool[:len(s.pool)-1]
	return m
}

func (s *scrambled) deliver(m Message) {
	s.enqueue(s.nodes[m.To].Step(m))
	s.observe(m.To)
}

func (s *scrambled) propose(cmd []byte) {
	_, msgs, ok := s.nodes[0].Propose(cmd)
	if !ok {
		s.t.Fatal("the bootstrap leader refused a proposal")
	}
	s.enqueue(msgs)
	s.observe(0)
}

// observe applies node id's newly committed entries against the chosen
// sequence, and holds the leader's commit to what a quorum's logs hold.
func (s *scrambled) observe(id int) {
	s.t.Helper()
	for _, e := range s.nodes[id].TakeCommitted() {
		pos := len(s.applied[id])
		if pos < len(s.chosen) {
			if !bytes.Equal(s.chosen[pos], e.Cmd) {
				s.t.Fatalf("node %d applied %q at position %d, the group chose %q", id, e.Cmd, pos, s.chosen[pos])
			}
		} else {
			s.chosen = append(s.chosen, e.Cmd)
		}
		s.applied[id] = append(s.applied[id], e.Cmd)
	}
	holding := 0
	for _, n := range s.nodes {
		if n.LastIndex() >= s.nodes[0].commit {
			holding++
		}
	}
	if holding < len(s.nodes)/2+1 {
		s.t.Fatalf("leader committed %d while only %d logs reach it", s.nodes[0].commit, holding)
	}
}

// TestScrambledNetworkConvergence: thousands of steps of reordered,
// dropped and duplicated messages between a 3-node group's leader and its
// followers, with proposals throughout, then a fault-free phase.
// State-machine safety and the leader's quorum commit are asserted at every
// step; convergence at the end.
func TestScrambledNetworkConvergence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1337} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := &scrambled{t: t, state: seed, applied: make([][][]byte, 3)}
			for id := 0; id < 3; id++ {
				s.nodes = append(s.nodes, NewNode(cfg3(id)))
			}
			proposed := 0
			for step := 0; step < 6000; step++ {
				switch r := s.intn(100); {
				case r < 10 && len(s.pool) > 0:
					s.take(s.intn(len(s.pool))) // drop
				case r < 15 && len(s.pool) > 0:
					s.pool = append(s.pool, s.pool[s.intn(len(s.pool))]) // duplicate
				case r < 95 && len(s.pool) > 0:
					s.deliver(s.take(s.intn(len(s.pool)))) // reorder
				default:
					s.propose([]byte(fmt.Sprintf("cmd-%d", proposed)))
					proposed++
				}
			}
			// Fault-free: two proposals delivered in order. The first
			// carries every entry to every follower, the second the
			// commit of all but itself.
			for i := 0; i < 2; i++ {
				s.propose([]byte(fmt.Sprintf("settle-%d", i)))
				for len(s.pool) > 0 {
					m := s.pool[0]
					s.pool = s.pool[1:]
					s.deliver(m)
				}
			}
			total := proposed + 2
			if len(s.applied[0]) != total {
				t.Fatalf("leader applied %d commands, proposed %d", len(s.applied[0]), total)
			}
			for id := 1; id < 3; id++ {
				if got := s.nodes[id].LastIndex(); got != uint64(total) {
					t.Fatalf("follower %d holds %d entries, want %d", id, got, total)
				}
				if len(s.applied[id]) != total-1 {
					t.Fatalf("follower %d applied %d commands, want %d", id, len(s.applied[id]), total-1)
				}
			}
		})
	}
}
