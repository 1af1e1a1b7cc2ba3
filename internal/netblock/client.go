package netblock

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Client-side errors.
var (
	// ErrTimeout reports a call that exceeded its per-call deadline.
	ErrTimeout = errors.New("netblock: call deadline exceeded")
	// ErrClosed reports use of a client after Close.
	ErrClosed = errors.New("netblock: client closed")

	errNoConn = errors.New("netblock: connection down")
)

// Config tunes the client. The zero value waits forever for every call.
type Config struct {
	// Timeout is the per-call deadline (0 = wait forever), set on the
	// connection before the request is written. A timed-out call closes the
	// connection: a peer that swallowed one response may still send it, and
	// the next call must not read it.
	Timeout time.Duration
}

// Client is a request/response RPC client, like the server it talks to: a
// call writes one request and reads its response before the next call may
// use the connection, so concurrent callers take turns. Every call makes
// exactly one attempt: a transport error, a deadline or a response carrying
// another request's ID fails the call and closes the connection, and if the
// client knows how to redial (DialConfig, NewRedialer), the next call
// reconnects. Retry and failover belong to the caller, which knows whether a
// request is safe to repeat and where else to send it.
type Client struct {
	cfg  Config
	dial func() (net.Conn, error) // nil: NewClient over a fixed conn

	callMu sync.Mutex // held for one whole exchange
	nextID uint64     // guarded by callMu

	dials atomic.Int64 // connections dialed, the first included

	// mu guards the connection alone, so Close can abort a call in flight.
	mu     sync.Mutex
	conn   net.Conn
	closed bool
}

// DialConfig connects to a netblock server. The returned client redials on
// the call after a connection loss.
func DialConfig(network, addr string, cfg Config) (*Client, error) {
	c := NewRedialer(func() (net.Conn, error) { return net.Dial(network, addr) }, cfg)
	if _, err := c.live(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewRedialer returns a client that connects through dial on its first call
// and again on the call after a connection loss. A failed dial fails that
// call; the next one dials again.
func NewRedialer(dial func() (net.Conn, error), cfg Config) *Client {
	return &Client{cfg: cfg, dial: dial}
}

// NewClient wraps an established connection (handy for tests over
// net.Pipe). Without a dialer there is no redial: once the connection dies,
// calls fail.
func NewClient(conn net.Conn) *Client {
	return NewClientConfig(conn, Config{})
}

// NewClientConfig is NewClient with an explicit Config.
func NewClientConfig(conn net.Conn, cfg Config) *Client {
	return &Client{cfg: cfg, conn: conn}
}

// Close tears down the connection; a call in flight fails and later calls
// return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	if conn == nil {
		return nil
	}
	return conn.Close()
}

// Retries returns how many times the client has redialed a lost
// connection: every dial after its first. A call is never retried; the
// redial happens on the next one.
func (c *Client) Retries() int64 { return max(c.dials.Load()-1, 0) }

// live returns the connection, dialing if there is none yet or the previous
// one was dropped, and the client knows how.
func (c *Client) live() (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.conn == nil {
		if c.dial == nil {
			return nil, errNoConn
		}
		conn, err := c.dial()
		if err != nil {
			return nil, fmt.Errorf("netblock: dial: %w", err)
		}
		c.conn = conn
		c.dials.Add(1)
	}
	return c.conn, nil
}

// drop closes the connection a failed call used, unless Close already did.
func (c *Client) drop(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == conn {
		conn.Close()
		c.conn = nil
	}
}

// Call performs one RPC: an opaque payload under the given op, answered by
// the peer handler's opaque response payload. The payload may be given in
// parts; the peer receives them back to back as one Request.Payload, and
// they are written straight from the caller's memory (one writev on a TCP
// connection), so a sender never copies its pieces into one buffer. A
// payload over the op's cap fails with ErrPayloadTooLarge before any byte
// is written.
func (c *Client) Call(op OpCode, payload ...[]byte) ([]byte, error) {
	resp, err := c.call(op, payload)
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// call sends one request and reads its response: one wire exchange, on the
// live connection or a redialed one. A failed exchange drops the connection
// and is returned; nothing is retried.
func (c *Client) call(op OpCode, payload [][]byte) (*Response, error) {
	if err := validate(op, payload); err != nil {
		return nil, err // unsendable: fail without touching the connection
	}
	c.callMu.Lock()
	defer c.callMu.Unlock()
	c.nextID++
	id := c.nextID
	conn, err := c.live()
	if err != nil {
		return nil, err
	}
	if c.cfg.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(c.cfg.Timeout)) //nolint:errcheck — a closed conn fails the write
	}
	resp, err := exchange(conn, id, op, payload)
	if err != nil {
		c.drop(conn) // a frame may be half-written or half-read
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = ErrTimeout
		}
		return nil, fmt.Errorf("netblock: %s call: %w", op, err)
	}
	return resp, resp.Err()
}

// exchange writes request id and reads the response, which must answer it.
func exchange(conn net.Conn, id uint64, op OpCode, payload [][]byte) (*Response, error) {
	if err := writeRequest(conn, id, op, payload...); err != nil {
		return nil, err
	}
	resp, err := ReadResponse(conn)
	if err != nil {
		return nil, err
	}
	if resp.ID != id {
		return nil, fmt.Errorf("response to request %d, want %d", resp.ID, id)
	}
	return resp, nil
}
