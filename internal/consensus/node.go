// Package consensus implements the replicated log behind the fabric's
// control plane: Raft-style leader election, log replication, and commit
// acknowledgement across a small set of coordinator replicas.
//
// The design follows the etcd/raft shape rather than the thread-per-role
// textbook shape: Node is a passive, single-threaded state machine whose
// only inputs are Step (a message arrived), Tick (one logical clock beat),
// and Propose (the local application wants an entry appended). Every input
// returns the messages the node now wants delivered; the node never blocks,
// sleeps, or touches a socket. That split is what makes the protocol
// testable — table tests drive elections message by message, and the seeded
// reorder/partition simulator in sim_test.go runs whole clusters through
// adversarial schedules deterministically. Runner (runner.go) owns the real
// ticker and transport; the message frame (msg.go) is a walk over the
// internal/wire cursor.
package consensus

import (
	"math/rand"
)

// State is a node's role in the current term.
type State uint8

const (
	Follower State = iota
	Candidate
	Leader
)

func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return "invalid"
}

// Entry is one replicated log record. Index is 1-based; Cmd is opaque to
// this package (the fabric encodes ledger commands into it). A nil Cmd is a
// leadership no-op: every new leader appends one so entries inherited from
// prior terms can commit under the current-term counting rule.
type Entry struct {
	Term  uint64
	Index uint64
	Cmd   []byte
}

// None marks "no known leader" / "voted for nobody".
const None = -1

// Election and heartbeat timing, in units of the driver's tick interval;
// the node itself has no notion of wall time. A follower campaigns after
// electionTicks + jitter + ID*staggerTicks silent ticks, jitter drawn
// uniformly from [0, electionJitterTicks) off the node's seeded RNG. The
// stagger spreads replica timeouts by ID so that after a leader dies the
// lowest live ID reliably campaigns first and wins before the next one
// times out: staggerTicks > electionJitterTicks must hold, it is what makes
// the succession order deterministic, and the golden leadership-transition
// fixtures rely on it.
const (
	electionTicks       = 20
	electionJitterTicks = 10
	staggerTicks        = 15
	heartbeatTicks      = 2 // leader's append/heartbeat broadcast period
)

// Config identifies one consensus node within its cluster.
type Config struct {
	// ID is this replica's index in [0, Peers).
	ID int
	// Peers is the cluster size. IDs are dense: 0..Peers-1.
	Peers int
	// BootstrapLeader, when >= 0, names the replica every node agrees is
	// the leader of term 1 at construction, skipping the cold-start
	// election. The fabric always bootstraps replica 0 so a run can begin
	// dispatching immediately. Set to None for a cold start.
	BootstrapLeader int
	// Seed feeds the per-node jitter RNG; the same seed reproduces the
	// same election timing.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Peers <= 0 {
		c.Peers = 1
	}
	return c
}

// Node is one consensus participant. It is not safe for concurrent use;
// Runner serializes access.
type Node struct {
	cfg Config

	state    State
	term     uint64
	votedFor int
	leader   int

	// log[i] holds the entry with Index i+1. The log is never compacted:
	// a fabric run's control-plane traffic is bounded by its shard count,
	// and keeping the full log means a rejoining replica can always be
	// caught up from index 1.
	log     []Entry
	commit  uint64
	applied uint64

	votes map[int]bool
	// next[i]/match[i] are the leader's replication cursors per peer.
	next  []uint64
	match []uint64

	elapsed int // ticks since last heartbeat (follower) or last broadcast (leader)
	timeout int // current randomized election timeout, in ticks
	rng     *rand.Rand
}

// NewNode constructs a node. With BootstrapLeader >= 0 every replica starts
// in term 1 already agreeing on that leader (the bootstrap replica appends
// its no-op immediately); messages the bootstrap leader would send are
// deferred to its first heartbeat tick.
func NewNode(cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:      cfg,
		votedFor: None,
		leader:   None,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(cfg.ID+1)*0x9E3779B97F4A7C15))),
	}
	n.resetTimeout()
	if cfg.BootstrapLeader >= 0 && cfg.BootstrapLeader < cfg.Peers {
		n.term = 1
		if cfg.BootstrapLeader == cfg.ID {
			n.becomeLeader()
		} else {
			n.leader = cfg.BootstrapLeader
		}
	}
	return n
}

// Accessors for the driver and tests.

func (n *Node) ID() int           { return n.cfg.ID }
func (n *Node) State() State      { return n.state }
func (n *Node) Term() uint64      { return n.term }
func (n *Node) Leader() int       { return n.leader }
func (n *Node) LastIndex() uint64 { return uint64(len(n.log)) }
func (n *Node) lastTerm() uint64  { return n.termAt(n.LastIndex()) }
func (n *Node) quorum(c int) bool { return c >= n.cfg.Peers/2+1 }

// termAt returns the term of the entry at a 1-based index; index 0 (the
// empty-log sentinel) has term 0.
func (n *Node) termAt(index uint64) uint64 {
	if index == 0 || index > uint64(len(n.log)) {
		return 0
	}
	return n.log[index-1].Term
}

func (n *Node) resetTimeout() {
	n.timeout = electionTicks + n.rng.Intn(electionJitterTicks) + n.cfg.ID*staggerTicks
}

// Tick advances the node's logical clock by one beat and returns any
// messages to send: heartbeats from a leader, or a fresh campaign from a
// follower/candidate whose election timer fired.
func (n *Node) Tick() []Message {
	n.elapsed++
	if n.state == Leader {
		if n.elapsed >= heartbeatTicks {
			n.elapsed = 0
			return n.broadcastAppend()
		}
		return nil
	}
	if n.elapsed >= n.timeout {
		return n.campaign()
	}
	return nil
}

// Propose appends cmd to the log if this node is the leader. It returns the
// entry's (index, term) — the waiter key for commit acknowledgement — plus
// the replication messages to send. ok is false on a non-leader.
func (n *Node) Propose(cmd []byte) (index, term uint64, msgs []Message, ok bool) {
	if n.state != Leader {
		return 0, 0, nil, false
	}
	n.appendEntry(cmd)
	index = n.LastIndex()
	n.match[n.cfg.ID] = index
	n.maybeCommit()
	return index, n.term, n.broadcastAppend(), true
}

// TakeCommitted returns the entries committed since the last call, in log
// order, advancing the applied cursor. The driver applies them to its FSM.
func (n *Node) TakeCommitted() []Entry {
	if n.applied >= n.commit {
		return nil
	}
	ents := make([]Entry, n.commit-n.applied)
	copy(ents, n.log[n.applied:n.commit])
	n.applied = n.commit
	return ents
}

// Step processes one incoming message and returns the responses/messages to
// send.
func (n *Node) Step(m Message) []Message {
	if m.Term > n.term {
		// Any newer-term message forces us to that term as a follower;
		// the leader (if the message reveals one) is learned below.
		n.becomeFollower(m.Term, None)
	}
	switch m.Type {
	case MsgVote:
		return n.onVote(m)
	case MsgVoteResp:
		n.onVoteResp(m)
		if n.state == Leader && n.term == m.Term {
			// Just won: announce immediately rather than waiting a beat.
			return n.broadcastAppend()
		}
		return nil
	case MsgApp:
		return n.onApp(m)
	case MsgAppResp:
		return n.onAppResp(m)
	}
	return nil
}

func (n *Node) campaign() []Message {
	n.state = Candidate
	n.term++
	n.votedFor = n.cfg.ID
	n.leader = None
	n.votes = map[int]bool{n.cfg.ID: true}
	n.elapsed = 0
	n.resetTimeout()
	if n.quorum(1) {
		// Single-node cluster: win instantly.
		n.becomeLeader()
		return nil
	}
	msgs := make([]Message, 0, n.cfg.Peers-1)
	for id := 0; id < n.cfg.Peers; id++ {
		if id == n.cfg.ID {
			continue
		}
		msgs = append(msgs, Message{
			Type:         MsgVote,
			From:         n.cfg.ID,
			To:           id,
			Term:         n.term,
			LastLogIndex: n.LastIndex(),
			LastLogTerm:  n.lastTerm(),
		})
	}
	return msgs
}

func (n *Node) becomeFollower(term uint64, leader int) {
	n.state = Follower
	n.term = term
	n.votedFor = None
	n.leader = leader
	n.votes = nil
	n.elapsed = 0
	n.resetTimeout()
}

func (n *Node) becomeLeader() {
	n.state = Leader
	n.leader = n.cfg.ID
	n.elapsed = 0
	last := n.LastIndex()
	n.next = make([]uint64, n.cfg.Peers)
	n.match = make([]uint64, n.cfg.Peers)
	for id := range n.next {
		n.next[id] = last + 1
	}
	// The no-op carries the new term into the log so earlier-term entries
	// can commit under the current-term counting rule (Raft §5.4.2).
	n.appendEntry(nil)
	n.match[n.cfg.ID] = n.LastIndex()
	n.maybeCommit()
}

func (n *Node) appendEntry(cmd []byte) {
	n.log = append(n.log, Entry{Term: n.term, Index: n.LastIndex() + 1, Cmd: cmd})
}

func (n *Node) onVote(m Message) []Message {
	resp := Message{Type: MsgVoteResp, From: n.cfg.ID, To: m.From, Term: n.term}
	if m.Term < n.term {
		return []Message{resp}
	}
	// m.Term == n.term here (a greater term already reset us in Step).
	upToDate := m.LastLogTerm > n.lastTerm() ||
		(m.LastLogTerm == n.lastTerm() && m.LastLogIndex >= n.LastIndex())
	if upToDate && (n.votedFor == None || n.votedFor == m.From) {
		n.votedFor = m.From
		n.elapsed = 0
		resp.Granted = true
	}
	return []Message{resp}
}

func (n *Node) onVoteResp(m Message) {
	if n.state != Candidate || m.Term != n.term || !m.Granted {
		return
	}
	n.votes[m.From] = true
	if n.quorum(len(n.votes)) {
		n.becomeLeader()
	}
}

func (n *Node) onApp(m Message) []Message {
	resp := Message{Type: MsgAppResp, From: n.cfg.ID, To: m.From, Term: n.term}
	if m.Term < n.term {
		return []Message{resp}
	}
	// Valid append from the current term's leader: adopt it and reset the
	// election timer. (A candidate seeing a same-term leader steps down.)
	if n.state != Follower {
		n.state = Follower
		n.votes = nil
	}
	n.leader = m.From
	n.elapsed = 0

	if m.PrevIndex > n.LastIndex() || n.termAt(m.PrevIndex) != m.PrevTerm {
		// Log doesn't contain the leader's anchor point: reject with a
		// back-up hint so the leader jumps next[] down in one round trip
		// instead of decrementing once per append.
		hint := n.LastIndex()
		if m.PrevIndex > 0 && m.PrevIndex-1 < hint {
			hint = m.PrevIndex - 1
		}
		resp.MatchIndex = hint
		return []Message{resp}
	}
	for _, e := range m.Entries {
		switch {
		case e.Index <= n.LastIndex() && n.termAt(e.Index) == e.Term:
			// Already have it.
		case e.Index <= n.LastIndex():
			// Conflict: truncate our divergent suffix and take the
			// leader's entry. Committed entries never conflict (Raft's
			// Log Matching property), so this never rewinds commit.
			n.log = append(n.log[:e.Index-1], e)
		default:
			n.log = append(n.log, e)
		}
	}
	lastNew := m.PrevIndex + uint64(len(m.Entries))
	if m.Commit > n.commit {
		c := m.Commit
		if c > lastNew {
			// Only trust commit up to what this append proved matches.
			c = lastNew
		}
		if c > n.commit {
			n.commit = c
		}
	}
	resp.Success = true
	resp.MatchIndex = lastNew
	return []Message{resp}
}

func (n *Node) onAppResp(m Message) []Message {
	if n.state != Leader || m.Term != n.term {
		return nil
	}
	if m.Success {
		if m.MatchIndex > n.match[m.From] {
			n.match[m.From] = m.MatchIndex
		}
		if n.match[m.From]+1 > n.next[m.From] {
			n.next[m.From] = n.match[m.From] + 1
		}
		n.maybeCommit()
		if n.next[m.From] <= n.LastIndex() {
			// The follower is still behind (this ack covered an older
			// batch); push the rest now.
			return []Message{n.appendTo(m.From)}
		}
		return nil
	}
	// Rejected: back up next[] using the follower's hint and retry.
	hint := m.MatchIndex + 1
	if hint < n.next[m.From] {
		n.next[m.From] = hint
	} else if n.next[m.From] > 1 {
		n.next[m.From]--
	}
	if n.next[m.From] < 1 {
		n.next[m.From] = 1
	}
	return []Message{n.appendTo(m.From)}
}

func (n *Node) maybeCommit() {
	for idx := n.LastIndex(); idx > n.commit; idx-- {
		if n.termAt(idx) != n.term {
			// Entries from older terms only commit via a newer-term entry
			// above them; own-term entries are a contiguous suffix, so
			// stop once we leave it.
			return
		}
		cnt := 0
		for _, m := range n.match {
			if m >= idx {
				cnt++
			}
		}
		if n.quorum(cnt) {
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
		if id == n.cfg.ID {
			continue
		}
		msgs = append(msgs, n.appendTo(id))
	}
	return msgs
}

// appendTo builds the append/heartbeat for one peer, carrying every entry
// from the peer's next cursor onward (the log is control-plane sized, so no
// batch cap is needed).
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
		Term:      n.term,
		PrevIndex: prev,
		PrevTerm:  n.termAt(prev),
		Commit:    n.commit,
		Entries:   ents,
	}
}
