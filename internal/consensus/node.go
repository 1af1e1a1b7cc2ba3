// Package consensus is a fixed-leader replicated log: one node, named at
// construction, appends entries and replicates them to its peers, and an
// entry commits once a quorum of the group holds it. There is no election,
// no clock and no second term: a group that loses its leader stops
// committing.
//
// Nothing in the product imports the package since the fabric stopped
// replicating its ledger; only the consensus rungs of the benchmark ladder
// (bench/ladder.go) call it, to time a proposal's commit on one and three
// nodes and the message codec. ROADMAP item 24 deletes it together with
// those rungs.
//
// Node is a passive, single-threaded state machine whose only inputs are
// Step (a message arrived) and Propose (the leader appends an entry); every
// input returns the messages the node now wants delivered, and the node
// never blocks or touches a socket. Runner (runner.go) serialises access,
// applies committed entries and parks proposers until their entry commits;
// the message frame (msg.go) is a walk over the internal/wire cursor.
package consensus

import "fmt"

// Entry is one replicated log record. Index is 1-based; Cmd is opaque to
// this package.
type Entry struct {
	Term  uint64
	Index uint64
	Cmd   []byte
}

// term is the log's one term: the bootstrap leader leads it for the life
// of the group, so every entry and message carries it.
const term = 1

// Config identifies one consensus node within its group.
type Config struct {
	// ID is this replica's index in [0, Peers).
	ID int
	// Peers is the group size. IDs are dense: 0..Peers-1.
	Peers int
	// BootstrapLeader names the replica that leads the group, in
	// [0, Peers); every node agrees on it at construction.
	BootstrapLeader int
}

// Node is one consensus participant. It is not safe for concurrent use;
// Runner serializes access.
type Node struct {
	cfg Config

	// log[i] holds the entry with Index i+1. The log is never compacted.
	log     []Entry
	commit  uint64
	applied uint64

	// next[i]/match[i] are the leader's replication cursors per peer; nil
	// on a follower.
	next  []uint64
	match []uint64
}

// NewNode constructs a node. It panics unless BootstrapLeader and ID are in
// [0, Peers): there is no election to find a leader.
func NewNode(cfg Config) *Node {
	if cfg.BootstrapLeader < 0 || cfg.BootstrapLeader >= cfg.Peers || cfg.ID < 0 || cfg.ID >= cfg.Peers {
		panic(fmt.Sprintf("consensus: node %d with bootstrap leader %d, want both in [0, %d)", cfg.ID, cfg.BootstrapLeader, cfg.Peers))
	}
	n := &Node{cfg: cfg}
	if n.leading() {
		n.next = make([]uint64, cfg.Peers)
		n.match = make([]uint64, cfg.Peers)
		for id := range n.next {
			n.next[id] = 1
		}
	}
	return n
}

func (n *Node) leading() bool     { return n.cfg.ID == n.cfg.BootstrapLeader }
func (n *Node) LastIndex() uint64 { return uint64(len(n.log)) }

// termAt returns the term of the entry at a 1-based index; index 0 (the
// empty-log sentinel) and an index past the log have term 0.
func (n *Node) termAt(index uint64) uint64 {
	if index == 0 || index > uint64(len(n.log)) {
		return 0
	}
	return n.log[index-1].Term
}

// Propose appends cmd to the log if this node is the leader. It returns the
// entry's index — the waiter key for commit acknowledgement — plus the
// replication messages to send. ok is false on a follower.
func (n *Node) Propose(cmd []byte) (index uint64, msgs []Message, ok bool) {
	if !n.leading() {
		return 0, nil, false
	}
	n.log = append(n.log, Entry{Term: term, Index: n.LastIndex() + 1, Cmd: cmd})
	index = n.LastIndex()
	n.match[n.cfg.ID] = index
	n.maybeCommit()
	return index, n.broadcastAppend(), true
}

// TakeCommitted returns the entries committed since the last call, in log
// order, advancing the applied cursor. The driver applies them to its FSM.
func (n *Node) TakeCommitted() []Entry {
	if n.applied >= n.commit {
		return nil
	}
	ents := n.log[n.applied:n.commit:n.commit]
	n.applied = n.commit
	return ents
}

// Step processes one incoming message and returns the messages to send in
// response. A message of another term, an append to the leader or from a
// node other than the leader, and an ack from outside the group are
// ignored.
func (n *Node) Step(m Message) []Message {
	if m.Term != term {
		return nil
	}
	switch m.Type {
	case MsgApp:
		if !n.leading() && m.From == n.cfg.BootstrapLeader {
			return n.onApp(m)
		}
	case MsgAppResp:
		if n.leading() && m.From >= 0 && m.From < n.cfg.Peers && m.From != n.cfg.ID {
			return n.onAppResp(m)
		}
	}
	return nil
}

func (n *Node) onApp(m Message) []Message {
	resp := Message{Type: MsgAppResp, From: n.cfg.ID, To: m.From, Term: term}
	if m.PrevIndex > n.LastIndex() || n.termAt(m.PrevIndex) != m.PrevTerm {
		// The log doesn't reach the leader's anchor point: reject with a
		// back-up hint so the leader jumps next[] down in one round trip
		// instead of decrementing once per append.
		hint := n.LastIndex()
		if m.PrevIndex > 0 && m.PrevIndex-1 < hint {
			hint = m.PrevIndex - 1
		}
		resp.MatchIndex = hint
		return []Message{resp}
	}
	// One leader wrote every entry, so an index the log already holds is
	// the same entry: only the part past the log's end is new.
	lastNew := m.PrevIndex + uint64(len(m.Entries))
	if lastNew > n.LastIndex() {
		n.log = append(n.log, m.Entries[n.LastIndex()-m.PrevIndex:]...)
	}
	// Only trust commit up to what this append proved matches.
	if c := min(m.Commit, lastNew); c > n.commit {
		n.commit = c
	}
	resp.Success = true
	resp.MatchIndex = lastNew
	return []Message{resp}
}

func (n *Node) onAppResp(m Message) []Message {
	if m.Success {
		n.match[m.From] = max(n.match[m.From], m.MatchIndex)
		n.next[m.From] = max(n.next[m.From], n.match[m.From]+1)
		n.maybeCommit()
		if n.next[m.From] <= n.LastIndex() {
			// The follower is still behind (this ack covered an older
			// batch); push the rest now.
			return []Message{n.appendTo(m.From)}
		}
		return nil
	}
	// Rejected: back up next[] using the follower's hint and retry.
	if hint := m.MatchIndex + 1; hint >= 1 && hint < n.next[m.From] {
		n.next[m.From] = hint
	} else if n.next[m.From] > 1 {
		n.next[m.From]--
	}
	return []Message{n.appendTo(m.From)}
}

// maybeCommit advances commit to the highest index a quorum holds.
func (n *Node) maybeCommit() {
	for idx := n.LastIndex(); idx > n.commit; idx-- {
		cnt := 0
		for _, m := range n.match {
			if m >= idx {
				cnt++
			}
		}
		if cnt >= n.cfg.Peers/2+1 {
			n.commit = idx
			return
		}
	}
}

func (n *Node) broadcastAppend() []Message {
	if n.cfg.Peers == 1 {
		return nil
	}
	msgs := make([]Message, 0, n.cfg.Peers-1)
	for id := 0; id < n.cfg.Peers; id++ {
		if id != n.cfg.ID {
			msgs = append(msgs, n.appendTo(id))
		}
	}
	return msgs
}

// appendTo builds the append for one peer, carrying every entry from the
// peer's next cursor onward (the log is small, so no batch cap is needed).
func (n *Node) appendTo(id int) Message {
	prev := n.next[id] - 1
	var ents []Entry
	if n.next[id] <= n.LastIndex() {
		ents = make([]Entry, n.LastIndex()-prev)
		copy(ents, n.log[prev:])
	}
	return Message{
		Type:      MsgApp,
		From:      n.cfg.ID,
		To:        id,
		Term:      term,
		PrevIndex: prev,
		PrevTerm:  n.termAt(prev),
		Commit:    n.commit,
		Entries:   ents,
	}
}
