// Package netblock is the RPC substrate the distributed parts of the lab
// ride on: a compact length-prefixed binary protocol of opaque payloads
// under typed opcodes, a server that mounts one Handler over any
// net.Listener, and a concurrency-safe request/response client (one exchange at a time per connection) with
// deadlines and redial. A request payload may be given in parts: the
// client checks their total against the op's cap before it writes a byte,
// then writes the header and the parts back to back with one net.Buffers
// write (one writev on a TCP connection), so a sender of a large payload
// made of pieces — a fabric worker's tracer chunks — never copies them
// into one buffer; the server reads them as one payload. The fabric
// control plane and the gateway serving plane define the message bodies; this layer only frames, bounds and routes them. It
// carries no block IO: the storage cluster is modelled (placement,
// balancer, cache, latency), not stored.
package netblock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// OpCode identifies a request type.
type OpCode uint8

// Protocol operations. Every op carries an opaque payload in both
// directions. The fabric ops are the distributed-simulation control plane
// (JoinFleet, AssignShard, ShardResult, Heartbeat, Drain) — internal/fabric
// defines their message bodies. Numbers 6 and 7 are retired: they carried
// the consensus messages of a replicated coordinator, which the fabric no
// longer has, and no op may reuse them (the gateway ops' numbers are on the
// wire). The gateway ops are the multi-tenant serving plane — tenants
// submit studies, poll their status, stream mid-run sketch snapshots,
// cancel, and read their own accounting; internal/gateway defines the
// bodies.
const (
	OpJoinFleet OpCode = iota + 1
	OpAssignShard
	OpShardResult
	OpHeartbeat
	OpDrain
	opRetired6
	opRetired7
	OpSubmitStudy
	OpStudyStatus
	OpStreamSnapshot
	OpCancelStudy
	OpTenantStats
)

// Valid reports whether o is a defined protocol operation. The codec
// rejects undefined and retired opcodes on both sides, before a payload
// byte: the client refuses to encode them, and the server refuses to decode
// them (an unknown opcode makes the frame length ambiguous, so the
// connection cannot be resynchronized).
func (o OpCode) Valid() bool {
	return o >= OpJoinFleet && o <= OpTenantStats && o != opRetired6 && o != opRetired7
}

// maxPayloadFor bounds one request payload by op. Control messages never
// exceed a few MiB; a ShardResult legitimately carries an entire shard's
// trace records and metric rows, so it gets a larger — but still hard —
// cap. Decoding commits memory
// chunk-by-chunk as bytes arrive (see readPayload), so a hostile header
// cannot allocate the cap up front.
func (o OpCode) maxPayloadFor() uint32 {
	if o == OpShardResult {
		return maxShardPayload
	}
	return maxPayload
}

func (o OpCode) String() string {
	switch o {
	case OpJoinFleet:
		return "join-fleet"
	case OpAssignShard:
		return "assign-shard"
	case OpShardResult:
		return "shard-result"
	case OpHeartbeat:
		return "heartbeat"
	case OpDrain:
		return "drain"
	case OpSubmitStudy:
		return "submit-study"
	case OpStudyStatus:
		return "study-status"
	case OpStreamSnapshot:
		return "stream-snapshot"
	case OpCancelStudy:
		return "cancel-study"
	case OpTenantStats:
		return "tenant-stats"
	}
	return fmt.Sprintf("OpCode(%d)", uint8(o))
}

// Status codes in responses. Any status but StatusOK is an error, its
// payload the error text.
const (
	StatusOK uint8 = iota
	StatusError
)

// maxPayload bounds a single request/response payload (one protocol
// message never exceeds a few MiB); maxShardPayload is the larger
// request-side cap for OpShardResult frames, which carry a whole
// shard's encoded partial results.
const (
	maxPayload      = 8 << 20
	maxShardPayload = 1 << 30
)

// MaxShardResultPayload is the wire cap on one OpShardResult frame,
// exported so senders can pre-check an encoded shard and report an
// actionable error (fewer VDs per shard) instead of a bare codec failure.
const MaxShardResultPayload = maxShardPayload

// Frame layout (little endian), the same in both directions:
//
//	id u64 | tag u8 | length u32 | payload
//
// where tag is a request's opcode or a response's status.
const headerSize = 8 + 1 + 4

// Request is one RPC: an opaque message body under an opcode.
type Request struct {
	ID      uint64
	Op      OpCode
	Payload []byte
	// Read is how long the payload took to arrive once its header had:
	// ReadRequest's clock, without the wait for the frame to begin.
	Read time.Duration
}

// Response is the handler's answer.
type Response struct {
	ID      uint64
	Status  uint8
	Payload []byte // reply body, or error text when Status != StatusOK
}

// Err converts an error response into a Go error.
func (r *Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	return fmt.Errorf("netblock: remote: %s", r.Payload)
}

// Errors of the codec layer.
var (
	ErrPayloadTooLarge = errors.New("netblock: payload exceeds protocol limit")
	ErrUnknownOp       = errors.New("netblock: unknown opcode")
)

// writeRequest encodes one request to w: the op's frame with the payload
// parts back to back as its payload.
func writeRequest(w io.Writer, id uint64, op OpCode, payload ...[]byte) error {
	if err := validate(op, payload); err != nil {
		return err
	}
	return writeFrame(w, id, byte(op), payload...)
}

// frameWrite is one frame on its way out: the header and room for the
// header plus three payload parts to hand to net.Buffers, all in the one
// allocation that the header alone would cost (it escapes through the
// io.Writer either way).
type frameWrite struct {
	hdr  [headerSize]byte
	room [4][]byte
	bufs net.Buffers
}

// writeFrame writes one header and its payload, given in parts, with one
// net.Buffers write: a TCP connection sends the frame with one writev, any
// other writer gets a Write per piece. An empty part is not written: a
// zero-length Write on a net.Pipe blocks until the peer's next Read, which a
// frame with nothing left to read never issues. The parts are not modified.
func writeFrame(w io.Writer, id uint64, tag uint8, payload ...[]byte) error {
	f := new(frameWrite)
	n := 0
	f.bufs = append(f.room[:0], f.hdr[:])
	for _, part := range payload {
		if len(part) > 0 {
			n += len(part)
			f.bufs = append(f.bufs, part)
		}
	}
	binary.LittleEndian.PutUint64(f.hdr[0:], id)
	f.hdr[8] = tag
	binary.LittleEndian.PutUint32(f.hdr[9:], uint32(n))
	_, err := f.bufs.WriteTo(w)
	return err
}

// readHeader reads one frame header.
func readHeader(r io.Reader) (id uint64, tag uint8, length uint32, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, err
	}
	return binary.LittleEndian.Uint64(hdr[0:]), hdr[8], binary.LittleEndian.Uint32(hdr[9:]), nil
}

// validate rejects a request the codec could not frame, before any bytes
// hit the wire — so an invalid request never poisons a healthy connection.
// The payload's size is the sum of its parts'.
func validate(op OpCode, payload [][]byte) error {
	if !op.Valid() {
		return fmt.Errorf("%w %d", ErrUnknownOp, uint8(op))
	}
	n := uint64(0)
	for _, part := range payload {
		n += uint64(len(part))
	}
	if n > uint64(op.maxPayloadFor()) {
		return ErrPayloadTooLarge
	}
	return nil
}

// ReadRequest decodes one request from r.
func ReadRequest(r io.Reader) (*Request, error) {
	id, tag, n, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	op := OpCode(tag)
	if !op.Valid() {
		return nil, fmt.Errorf("%w %d", ErrUnknownOp, tag)
	}
	if n > op.maxPayloadFor() {
		return nil, ErrPayloadTooLarge
	}
	start := time.Now()
	p, err := readPayload(r, n)
	if err != nil {
		return nil, err
	}
	return &Request{ID: id, Op: op, Payload: p, Read: time.Since(start)}, nil
}

// allocChunk bounds how much payload memory is committed ahead of the bytes
// actually arriving, so a frame header claiming maxPayload cannot make the
// decoder allocate 8 MiB for a peer that then sends nothing.
const allocChunk = 64 << 10

// readPayload reads exactly n payload bytes, committing memory only as data
// arrives and without regrowing. A frame longer than two chunks is read
// straight into a recycled buffer when framePool holds one long enough
// (Recycle): that commits nothing new and gathers no pieces, and a frame
// that ends early hands the buffer back. Otherwise a frame of up to two chunks is
// one buffer from the start; a longer one is read in allocChunk pieces until
// half of it has arrived, then the one buffer of the frame's exact size is
// committed, the pieces gathered into it and the rest read in place. That
// allocates about 1.5x the frame and copies at most half of it, and a peer
// that stalls after k bytes has cost k plus two chunks before the commit, at
// most 3k plus a chunk after it. EOF mid-payload reports
// io.ErrUnexpectedEOF.
func readPayload(r io.Reader, n uint32) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	total := int(n)
	var pieces [][]byte
	if total > 2*allocChunk {
		if buf := pooledBuffer(total); buf != nil {
			if err := readFull(r, buf); err != nil {
				Recycle(buf)
				return nil, err
			}
			return buf, nil
		}
		for got := 0; got < total/2; got += allocChunk {
			piece := make([]byte, allocChunk)
			if err := readFull(r, piece); err != nil {
				return nil, err
			}
			pieces = append(pieces, piece)
		}
	}
	buf := make([]byte, total)
	at := 0
	for _, piece := range pieces {
		at += copy(buf[at:], piece)
	}
	if err := readFull(r, buf[at:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// readFull fills b from the middle of a payload, where running out of bytes
// is always unexpected.
func readFull(r io.Reader, b []byte) error {
	_, err := io.ReadFull(r, b)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// WriteResponse encodes resp to w.
func WriteResponse(w io.Writer, resp *Response) error {
	if len(resp.Payload) > maxPayload {
		return ErrPayloadTooLarge
	}
	return writeFrame(w, resp.ID, resp.Status, resp.Payload)
}

// ReadResponse decodes one response from r.
func ReadResponse(r io.Reader) (*Response, error) {
	id, status, n, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if n > maxPayload {
		return nil, ErrPayloadTooLarge
	}
	p, err := readPayload(r, n)
	if err != nil {
		return nil, err
	}
	return &Response{ID: id, Status: status, Payload: p}, nil
}
