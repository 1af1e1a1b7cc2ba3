package consensus

import (
	"errors"
	"fmt"

	"ebslab/internal/wire"
)

// MsgType discriminates consensus messages.
type MsgType uint8

const (
	MsgVote MsgType = iota + 1
	MsgVoteResp
	MsgApp
	MsgAppResp
)

func (t MsgType) String() string {
	switch t {
	case MsgVote:
		return "vote"
	case MsgVoteResp:
		return "vote-resp"
	case MsgApp:
		return "append"
	case MsgAppResp:
		return "append-resp"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Valid reports whether t is a defined message type.
func (t MsgType) Valid() bool { return t >= MsgVote && t <= MsgAppResp }

// Message is one consensus datagram. A single struct covers all four types
// (unused fields stay zero), mirroring the raft paper's RPC arguments:
//
//	MsgVote:     Term, LastLogIndex, LastLogTerm
//	MsgVoteResp: Term, Granted
//	MsgApp:      Term, PrevIndex, PrevTerm, Commit, Entries
//	MsgAppResp:  Term, Success, MatchIndex (ack, or back-up hint on reject)
type Message struct {
	Type MsgType
	From int
	To   int
	Term uint64

	LastLogIndex uint64
	LastLogTerm  uint64
	Granted      bool

	PrevIndex uint64
	PrevTerm  uint64
	Commit    uint64
	Entries   []Entry

	Success    bool
	MatchIndex uint64
}

// ErrMsgWire is wrapped by every consensus frame decode failure.
var ErrMsgWire = errors.New("consensus: malformed message frame")

// Wire format (little endian), versioned so a mixed-version replica set
// fails loudly instead of misparsing:
//
//	u8 version | u8 type | u32 from | u32 to | u64 term |
//	u64 lastLogIndex | u64 lastLogTerm | u8 granted |
//	u64 prevIndex | u64 prevTerm | u64 commit |
//	u8 success | u64 matchIndex |
//	u32 nEntries | nEntries × (u64 term | u64 index | u32 cmdLen | cmd)
const msgWireVersion = 1

const (
	msgFixedSize   = 1 + 1 + 4 + 4 + 8 + 8 + 8 + 1 + 8 + 8 + 8 + 1 + 8 + 4
	entryFixedSize = 8 + 8 + 4
)

// maxWireEntries bounds the decoded entry count before any allocation is
// sized by it; combined with the per-entry fixed cost this keeps a hostile
// header from committing memory the frame doesn't back.
const maxWireEntries = 1 << 20

// EncodeMessage serializes m for the netblock wire.
func EncodeMessage(m *Message) []byte {
	size := msgFixedSize
	for i := range m.Entries {
		size += entryFixedSize + len(m.Entries[i].Cmd)
	}
	w := &wire.Writer{B: make([]byte, 0, size)}
	w.U8(msgWireVersion)
	w.U8(uint8(m.Type))
	w.U32(uint32(m.From))
	w.U32(uint32(m.To))
	w.U64(m.Term)
	w.U64(m.LastLogIndex)
	w.U64(m.LastLogTerm)
	w.Bool(m.Granted)
	w.U64(m.PrevIndex)
	w.U64(m.PrevTerm)
	w.U64(m.Commit)
	w.Bool(m.Success)
	w.U64(m.MatchIndex)
	w.U32(uint32(len(m.Entries)))
	for i := range m.Entries {
		e := &m.Entries[i]
		w.U64(e.Term)
		w.U64(e.Index)
		w.U32(uint32(len(e.Cmd)))
		w.Bytes(e.Cmd)
	}
	return w.B
}

// DecodeMessage parses a wire frame back into a Message. Every malformed
// input returns an error wrapping ErrMsgWire; no input may panic or cause
// an allocation sized by an unbacked length claim (the fuzz target pins
// both properties).
func DecodeMessage(data []byte) (*Message, error) {
	r := wire.NewReader(data, ErrMsgWire)
	ver := r.U8()
	typ := MsgType(r.U8())
	m := &Message{Type: typ}
	m.From = int(r.I32())
	m.To = int(r.I32())
	m.Term = r.U64()
	m.LastLogIndex = r.U64()
	m.LastLogTerm = r.U64()
	m.Granted = r.U8() != 0
	m.PrevIndex = r.U64()
	m.PrevTerm = r.U64()
	m.Commit = r.U64()
	m.Success = r.U8() != 0
	m.MatchIndex = r.U64()
	// Each entry costs at least its fixed header on the wire, so Count only
	// passes a claim the remaining bytes can back.
	nEntries := r.Count(entryFixedSize)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ver != msgWireVersion {
		return nil, fmt.Errorf("%w: version %d", ErrMsgWire, ver)
	}
	if !typ.Valid() {
		return nil, fmt.Errorf("%w: type %d", ErrMsgWire, uint8(typ))
	}
	if nEntries > maxWireEntries {
		return nil, fmt.Errorf("%w: %d entries", ErrMsgWire, nEntries)
	}
	if nEntries > 0 {
		m.Entries = make([]Entry, nEntries)
		for i := range m.Entries {
			e := &m.Entries[i]
			e.Term = r.U64()
			e.Index = r.U64()
			if cmd := r.Take(r.Count(1)); len(cmd) > 0 {
				e.Cmd = append([]byte(nil), cmd...)
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
