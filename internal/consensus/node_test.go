package consensus

import (
	"testing"
)

// cfg3 builds a 3-node config for node id with deterministic timing.
func cfg3(id int) Config {
	return Config{
		ID:              id,
		Peers:           3,
		BootstrapLeader: 0,
		Seed:            42,
	}
}

// coldCfg3 is a 3-node cold-start config (no bootstrap leader).
func coldCfg3(id int) Config {
	c := cfg3(id)
	c.BootstrapLeader = None
	return c
}

// tickUntilCampaign ticks n until it emits messages (its election fired),
// failing the test if it never does.
func tickUntilCampaign(t *testing.T, n *Node) []Message {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		if msgs := n.Tick(); len(msgs) > 0 {
			return msgs
		}
	}
	t.Fatal("node never campaigned")
	return nil
}

func TestBootstrapRoles(t *testing.T) {
	l := NewNode(cfg3(0))
	if l.State() != Leader || l.Term() != 1 || l.Leader() != 0 {
		t.Fatalf("replica 0: state=%v term=%d leader=%d, want bootstrap leader of term 1", l.State(), l.Term(), l.Leader())
	}
	if l.LastIndex() != 1 || l.termAt(1) != 1 || l.log[0].Cmd != nil {
		t.Fatalf("bootstrap leader log = %+v, want one term-1 no-op", l.log)
	}
	f := NewNode(cfg3(1))
	if f.State() != Follower || f.Term() != 1 || f.Leader() != 0 {
		t.Fatalf("replica 1: state=%v term=%d leader=%d, want follower of replica 0", f.State(), f.Term(), f.Leader())
	}
}

func TestSingleNodeProposeCommitsImmediately(t *testing.T) {
	n := NewNode(Config{ID: 0, Peers: 1, BootstrapLeader: 0})
	idx, term, msgs, ok := n.Propose([]byte("x"))
	if !ok || term != 1 || idx != 2 { // index 1 is the bootstrap no-op
		t.Fatalf("Propose = (%d, %d, ok=%v), want (2, 1, true)", idx, term, ok)
	}
	if len(msgs) != 0 {
		t.Fatalf("single-node propose emitted %d messages", len(msgs))
	}
	if n.commit != 2 {
		t.Fatalf("commit = %d, want 2", n.commit)
	}
	ents := n.TakeCommitted()
	if len(ents) != 2 || string(ents[1].Cmd) != "x" {
		t.Fatalf("TakeCommitted = %+v, want no-op + x", ents)
	}
	if got := n.TakeCommitted(); got != nil {
		t.Fatalf("second TakeCommitted = %+v, want nil", got)
	}
}

// TestElectionAfterTimeout walks a full election by hand: follower 1 times
// out, campaigns in term 2, wins with follower 2's vote, and emits appends.
func TestElectionAfterTimeout(t *testing.T) {
	n1 := NewNode(coldCfg3(1))
	n2 := NewNode(coldCfg3(2))

	msgs := tickUntilCampaign(t, n1)
	if n1.State() != Candidate || n1.Term() != 1 {
		t.Fatalf("after timeout: state=%v term=%d, want candidate term 1", n1.State(), n1.Term())
	}
	if len(msgs) != 2 || msgs[0].Type != MsgVote || msgs[1].Type != MsgVote {
		t.Fatalf("campaign messages = %+v, want 2 vote requests", msgs)
	}

	var vote Message
	for _, m := range msgs {
		if m.To == 2 {
			vote = m
		}
	}
	resp := n2.Step(vote)
	if len(resp) != 1 || resp[0].Type != MsgVoteResp || !resp[0].Granted {
		t.Fatalf("voter response = %+v, want granted vote", resp)
	}

	out := n1.Step(resp[0])
	if n1.State() != Leader || n1.Leader() != 1 {
		t.Fatalf("after quorum: state=%v leader=%d, want leader 1", n1.State(), n1.Leader())
	}
	if len(out) != 2 || out[0].Type != MsgApp {
		t.Fatalf("new leader output = %+v, want immediate appends", out)
	}
	if n1.LastIndex() != 1 || n1.log[0].Cmd != nil {
		t.Fatalf("new leader log = %+v, want the term-1 no-op", n1.log)
	}
}

// TestVoteTable drives the vote-granting rules through the paper's §5.2/§5.4
// cases: term checks, single vote per term, and the up-to-date log check.
func TestVoteTable(t *testing.T) {
	withLog := func(entries ...uint64) func(*Node) {
		return func(n *Node) {
			for _, term := range entries {
				n.log = append(n.log, Entry{Term: term, Index: n.LastIndex() + 1})
			}
		}
	}
	cases := []struct {
		name  string
		setup func(*Node) // voter starts as cold follower, term 0
		req   Message
		grant bool
	}{
		{
			"grants fresh candidate",
			nil,
			Message{Type: MsgVote, From: 1, Term: 1},
			true,
		},
		{
			"rejects stale term",
			func(n *Node) { n.term = 5 },
			Message{Type: MsgVote, From: 1, Term: 3},
			false,
		},
		{
			"rejects second candidate same term",
			func(n *Node) { n.term = 2; n.votedFor = 2 },
			Message{Type: MsgVote, From: 1, Term: 2},
			false,
		},
		{
			"re-grants same candidate same term",
			func(n *Node) { n.term = 2; n.votedFor = 1 },
			Message{Type: MsgVote, From: 1, Term: 2},
			true,
		},
		{
			"rejects shorter log",
			withLog(1, 1),
			Message{Type: MsgVote, From: 1, Term: 2, LastLogIndex: 1, LastLogTerm: 1},
			false,
		},
		{
			"rejects lower last term despite longer log",
			withLog(1, 2),
			Message{Type: MsgVote, From: 1, Term: 3, LastLogIndex: 10, LastLogTerm: 1},
			false,
		},
		{
			"grants equal log",
			withLog(1, 2),
			Message{Type: MsgVote, From: 1, Term: 3, LastLogIndex: 2, LastLogTerm: 2},
			true,
		},
		{
			"grants higher last term despite shorter log",
			withLog(1, 1, 1),
			Message{Type: MsgVote, From: 1, Term: 3, LastLogIndex: 1, LastLogTerm: 2},
			true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNode(coldCfg3(0))
			if tc.setup != nil {
				tc.setup(n)
			}
			tc.req.To = 0
			out := n.Step(tc.req)
			if len(out) != 1 || out[0].Type != MsgVoteResp {
				t.Fatalf("output = %+v, want one vote response", out)
			}
			if out[0].Granted != tc.grant {
				t.Fatalf("granted = %v, want %v", out[0].Granted, tc.grant)
			}
		})
	}
}

// TestLeaderStepsDownOnHigherTerm: any message from a newer term demotes a
// leader to follower.
func TestLeaderStepsDownOnHigherTerm(t *testing.T) {
	l := NewNode(cfg3(0))
	l.Step(Message{Type: MsgApp, From: 2, To: 0, Term: 9})
	if l.State() != Follower || l.Term() != 9 || l.Leader() != 2 {
		t.Fatalf("state=%v term=%d leader=%d, want follower of 2 in term 9", l.State(), l.Term(), l.Leader())
	}
}

// TestAppendConflictTruncation: a follower holding entries from a deposed
// leader truncates its divergent suffix and adopts the new leader's log.
func TestAppendConflictTruncation(t *testing.T) {
	f := NewNode(coldCfg3(2))
	// Divergent history: term-1 entries at 1..3 from a dead leader.
	f.term = 1
	f.log = []Entry{
		{Term: 1, Index: 1, Cmd: []byte("a")},
		{Term: 1, Index: 2, Cmd: []byte("stale-b")},
		{Term: 1, Index: 3, Cmd: []byte("stale-c")},
	}
	// New term-2 leader shares index 1 and overwrites from index 2.
	out := f.Step(Message{
		Type: MsgApp, From: 1, To: 2, Term: 2,
		PrevIndex: 1, PrevTerm: 1, Commit: 3,
		Entries: []Entry{
			{Term: 2, Index: 2, Cmd: []byte("b")},
			{Term: 2, Index: 3, Cmd: []byte("c")},
		},
	})
	if len(out) != 1 || !out[0].Success || out[0].MatchIndex != 3 {
		t.Fatalf("append response = %+v, want success match=3", out)
	}
	if f.LastIndex() != 3 || string(f.log[1].Cmd) != "b" || string(f.log[2].Cmd) != "c" {
		t.Fatalf("log after truncation = %+v", f.log)
	}
	if f.commit != 3 {
		t.Fatalf("commit = %d, want 3", f.commit)
	}
}

// TestAppendRejectsMissingPrev: a gap produces a rejection with a back-up
// hint, and the leader uses the hint to retransmit from the follower's end.
func TestAppendRejectsMissingPrev(t *testing.T) {
	f := NewNode(coldCfg3(2))
	out := f.Step(Message{
		Type: MsgApp, From: 0, To: 2, Term: 1,
		PrevIndex: 5, PrevTerm: 1,
		Entries: []Entry{{Term: 1, Index: 6}},
	})
	if len(out) != 1 || out[0].Success {
		t.Fatalf("append response = %+v, want rejection", out)
	}
	if out[0].MatchIndex != 0 {
		t.Fatalf("back-up hint = %d, want 0 (empty log)", out[0].MatchIndex)
	}

	// The leader reacts by rewinding next[] and resending from index 1.
	l := NewNode(cfg3(0))
	for i := 0; i < 4; i++ {
		l.Propose([]byte{byte(i)})
	}
	l.next[2] = 6 // pretend we'd optimistically advanced
	retry := l.Step(Message{Type: MsgAppResp, From: 2, To: 0, Term: 1, Success: false, MatchIndex: 0})
	if len(retry) != 1 || retry[0].PrevIndex != 0 || len(retry[0].Entries) != 5 {
		t.Fatalf("retry = %+v, want full log from index 1", retry)
	}
}

// TestCommitRequiresQuorumAndCurrentTerm: the leader commits once a
// majority matches, and only for entries of its own term.
func TestCommitRequiresQuorumAndCurrentTerm(t *testing.T) {
	l := NewNode(cfg3(0))
	idx, _, _, _ := l.Propose([]byte("x")) // index 2 (after bootstrap no-op)
	if l.commit != 0 {
		t.Fatalf("commit before any ack = %d, want 0", l.commit)
	}
	l.Step(Message{Type: MsgAppResp, From: 1, To: 0, Term: 1, Success: true, MatchIndex: idx})
	if l.commit != idx {
		t.Fatalf("commit after one ack = %d, want %d (2/3 quorum)", l.commit, idx)
	}

	// Older-term entries must not commit by counting alone: a new leader
	// with an uncommitted term-1 entry cannot commit it until its own
	// term-2 no-op reaches quorum.
	n := NewNode(coldCfg3(1))
	n.term = 1
	n.log = []Entry{{Term: 1, Index: 1, Cmd: []byte("old")}}
	n.campaignForTest(t)
	// n is now a term-2 candidate; grant it the election.
	n.Step(Message{Type: MsgVoteResp, From: 2, To: 1, Term: n.Term(), Granted: true})
	if n.State() != Leader {
		t.Fatal("candidate did not win with quorum")
	}
	// Follower acks only the old term-1 entry.
	n.Step(Message{Type: MsgAppResp, From: 2, To: 1, Term: n.Term(), Success: true, MatchIndex: 1})
	if n.commit != 0 {
		t.Fatalf("commit = %d: committed an old-term entry by counting", n.commit)
	}
	// Acking through the new no-op commits both.
	n.Step(Message{Type: MsgAppResp, From: 2, To: 1, Term: n.Term(), Success: true, MatchIndex: 2})
	if n.commit != 2 {
		t.Fatalf("commit = %d, want 2 after own-term entry reaches quorum", n.commit)
	}
}

// campaignForTest forces an immediate campaign regardless of timers.
func (n *Node) campaignForTest(t *testing.T) {
	t.Helper()
	n.elapsed = n.timeout
	if msgs := n.Tick(); len(msgs) == 0 {
		t.Fatal("forced campaign emitted nothing")
	}
}

// TestStaggeredTimeouts pins the deterministic-succession property the
// golden leadership fixtures rely on: with the default stagger, replica 1
// always times out strictly before replica 2.
func TestStaggeredTimeouts(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c1, c2 := coldCfg3(1), coldCfg3(2)
		c1.Seed, c2.Seed = seed, seed
		n1, n2 := NewNode(c1), NewNode(c2)
		if n1.timeout >= n2.timeout {
			t.Fatalf("seed %d: timeout(1)=%d >= timeout(2)=%d; succession order not deterministic", seed, n1.timeout, n2.timeout)
		}
	}
}
