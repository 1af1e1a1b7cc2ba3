package consensus

import (
	"testing"
)

// cfg3 builds the config of node id in a 3-node group led by node 0.
func cfg3(id int) Config {
	return Config{ID: id, Peers: 3, BootstrapLeader: 0}
}

func TestBootstrapRoles(t *testing.T) {
	l := NewNode(cfg3(0))
	if idx, msgs, ok := l.Propose([]byte("x")); !ok || idx != 1 || len(msgs) != 2 {
		t.Fatalf("leader Propose = (%d, %d msgs, ok=%v), want (1, 2 appends, true)", idx, len(msgs), ok)
	}
	f := NewNode(cfg3(1))
	if _, msgs, ok := f.Propose([]byte("x")); ok || msgs != nil || f.LastIndex() != 0 {
		t.Fatalf("follower Propose accepted (ok=%v, %d msgs, log %d)", ok, len(msgs), f.LastIndex())
	}
	// There is no election to find a leader, so a group without one is
	// refused at construction.
	for _, boot := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNode with BootstrapLeader %d of 3 peers did not panic", boot)
				}
			}()
			NewNode(Config{ID: 0, Peers: 3, BootstrapLeader: boot})
		}()
	}
}

func TestSingleNodeProposeCommitsImmediately(t *testing.T) {
	n := NewNode(Config{ID: 0, Peers: 1, BootstrapLeader: 0})
	idx, msgs, ok := n.Propose([]byte("x"))
	if !ok || idx != 1 {
		t.Fatalf("Propose = (%d, ok=%v), want (1, true)", idx, ok)
	}
	if len(msgs) != 0 {
		t.Fatalf("single-node propose emitted %d messages", len(msgs))
	}
	if n.commit != 1 {
		t.Fatalf("commit = %d, want 1", n.commit)
	}
	ents := n.TakeCommitted()
	if len(ents) != 1 || string(ents[0].Cmd) != "x" || ents[0].Term != term {
		t.Fatalf("TakeCommitted = %+v, want x in term %d", ents, term)
	}
	if got := n.TakeCommitted(); got != nil {
		t.Fatalf("second TakeCommitted = %+v, want nil", got)
	}
}

// TestAppendRejectsMissingPrev: a gap produces a rejection with a back-up
// hint, the leader uses the hint to retransmit from the follower's end, and
// a retransmitted append the follower already holds leaves its log as it
// was.
func TestAppendRejectsMissingPrev(t *testing.T) {
	f := NewNode(cfg3(2))
	out := f.Step(Message{
		Type: MsgApp, From: 0, To: 2, Term: term,
		PrevIndex: 5, PrevTerm: term,
		Entries: []Entry{{Term: term, Index: 6}},
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
	retry := l.Step(out[0])
	if len(retry) != 1 || retry[0].PrevIndex != 0 || len(retry[0].Entries) != 4 {
		t.Fatalf("retry = %+v, want the whole log from index 1", retry)
	}

	// The follower takes the retry, and then the same append again.
	for pass := 0; pass < 2; pass++ {
		ack := f.Step(retry[0])
		if len(ack) != 1 || !ack[0].Success || ack[0].MatchIndex != 4 {
			t.Fatalf("pass %d: append response = %+v, want success match=4", pass, ack)
		}
		if f.LastIndex() != 4 {
			t.Fatalf("pass %d: follower log holds %d entries, want 4", pass, f.LastIndex())
		}
	}
	for i, e := range f.log {
		if e.Index != uint64(i+1) || len(e.Cmd) != 1 || e.Cmd[0] != byte(i) {
			t.Fatalf("follower log[%d] = %+v, want the leader's entry %d", i, e, i+1)
		}
	}
}

// TestCommitRequiresQuorumAndCurrentTerm: the leader commits once a
// majority holds an entry, and an ack from outside the group or of another
// term counts for nothing; a follower commits no further than its log.
func TestCommitRequiresQuorumAndCurrentTerm(t *testing.T) {
	l := NewNode(cfg3(0))
	idx, _, _ := l.Propose([]byte("x"))
	if l.commit != 0 {
		t.Fatalf("commit before any ack = %d, want 0", l.commit)
	}
	for _, stray := range []Message{
		{Type: MsgAppResp, From: 3, To: 0, Term: term, Success: true, MatchIndex: idx},
		{Type: MsgAppResp, From: -1, To: 0, Term: term, Success: true, MatchIndex: idx},
		{Type: MsgAppResp, From: 0, To: 0, Term: term, Success: true, MatchIndex: idx},
		{Type: MsgAppResp, From: 1, To: 0, Term: term + 1, Success: true, MatchIndex: idx},
	} {
		if out := l.Step(stray); out != nil || l.commit != 0 {
			t.Fatalf("stray ack %+v: commit = %d, out %+v; want it ignored", stray, l.commit, out)
		}
	}
	l.Step(Message{Type: MsgAppResp, From: 1, To: 0, Term: term, Success: true, MatchIndex: idx})
	if l.commit != idx {
		t.Fatalf("commit after one ack = %d, want %d (2/3 quorum)", l.commit, idx)
	}
	if ents := l.TakeCommitted(); len(ents) != 1 || string(ents[0].Cmd) != "x" {
		t.Fatalf("TakeCommitted = %+v, want x", ents)
	}

	// A follower takes the leader's commit only as far as the append
	// proved its log matches.
	f := NewNode(cfg3(1))
	f.Step(Message{Type: MsgApp, From: 0, To: 1, Term: term, Commit: 5, Entries: []Entry{{Term: term, Index: 1, Cmd: []byte("x")}}})
	if f.commit != 1 {
		t.Fatalf("follower commit = %d, want 1: the append proved one entry", f.commit)
	}
}
