package netblock

import (
	"errors"
	"fmt"
	"net"
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

	errMidCall = errors.New("netblock: connection closed mid-call")
	errNoConn  = errors.New("netblock: connection down")
)

// Config tunes the client. The zero value waits forever for every call.
type Config struct {
	// Timeout is the per-call deadline (0 = wait forever). A timed-out call
	// abandons its connection: a peer that swallows one response cannot be
	// trusted with the rest of the pipeline.
	Timeout time.Duration
}

// Client is a pipelining RPC client: many goroutines can issue requests
// concurrently over one connection; a demux goroutine routes responses back
// by request ID. Every call makes exactly one attempt: when the connection
// dies, every in-flight call fails immediately with a real error, and if the
// client knows how to redial (DialConfig), the next call reconnects. Retry
// and failover belong to the caller, which knows whether a request is safe
// to repeat and where else to send it.
type Client struct {
	cfg  Config
	dial func() (net.Conn, error) // nil: NewClient over a fixed conn

	nextID  atomic.Uint64
	redials atomic.Int64

	mu     sync.Mutex
	cs     *connState
	closed bool
}

// connState is one connection's demux state. A client replaces its
// connState wholesale on redial; abandoned states drain and die.
type connState struct {
	conn    net.Conn
	writeMu sync.Mutex // serializes request frames

	mu      sync.Mutex
	pending map[uint64]chan *Response
	readErr error
	done    chan struct{}
}

// DialConfig connects to a netblock server. The returned client redials on
// the call after a connection loss.
func DialConfig(network, addr string, cfg Config) (*Client, error) {
	c := &Client{
		cfg:  cfg,
		dial: func() (net.Conn, error) { return net.Dial(network, addr) },
	}
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("netblock: dial: %w", err)
	}
	c.cs = newConnState(conn)
	return c, nil
}

// NewClient wraps an established connection (handy for tests over
// net.Pipe). Without a dialer there is no redial: once the connection dies,
// calls fail.
func NewClient(conn net.Conn) *Client {
	return NewClientConfig(conn, Config{})
}

// NewClientConfig is NewClient with an explicit Config.
func NewClientConfig(conn net.Conn, cfg Config) *Client {
	return &Client{cfg: cfg, cs: newConnState(conn)}
}

func newConnState(conn net.Conn) *connState {
	cs := &connState{
		conn:    conn,
		pending: make(map[uint64]chan *Response),
		done:    make(chan struct{}),
	}
	go cs.readLoop()
	return cs
}

// Close tears down the connection; in-flight calls fail and later calls
// return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	cs := c.cs
	c.cs = nil
	c.mu.Unlock()
	if cs == nil {
		return nil
	}
	err := cs.conn.Close()
	<-cs.done
	return err
}

// Retries returns how many times the client has redialed a lost
// connection. A call is never retried; the redial happens on the next one.
func (c *Client) Retries() int64 { return c.redials.Load() }

func (cs *connState) readLoop() {
	defer close(cs.done)
	for {
		resp, err := ReadResponse(cs.conn)
		cs.mu.Lock()
		if err != nil {
			cs.readErr = err
			for id, ch := range cs.pending {
				close(ch)
				delete(cs.pending, id)
			}
			cs.mu.Unlock()
			return
		}
		ch, ok := cs.pending[resp.ID]
		if ok {
			delete(cs.pending, resp.ID)
		}
		cs.mu.Unlock()
		if ok {
			ch <- resp // buffered: never blocks, even if the caller timed out
		}
	}
}

// register adds a pending slot for id, failing if the connection is
// already dead.
func (cs *connState) register(id uint64) (chan *Response, error) {
	ch := make(chan *Response, 1)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.readErr != nil {
		return nil, cs.readErr
	}
	cs.pending[id] = ch
	return ch, nil
}

func (cs *connState) forget(id uint64) {
	cs.mu.Lock()
	delete(cs.pending, id)
	cs.mu.Unlock()
}

// state returns the live connection, redialing if the previous one was
// dropped and the client knows how.
func (c *Client) state() (*connState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.cs == nil {
		if c.dial == nil {
			return nil, errNoConn
		}
		conn, err := c.dial()
		if err != nil {
			return nil, fmt.Errorf("netblock: redial: %w", err)
		}
		c.cs = newConnState(conn)
		c.redials.Add(1)
	}
	return c.cs, nil
}

// drop discards the connection a failed call used, unless a concurrent
// caller already replaced it.
func (c *Client) drop(cs *connState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cs == cs {
		c.cs.conn.Close()
		c.cs = nil
	}
}

// call sends one request and waits for its response: one wire exchange, on
// the live connection or a redialed one. A transport failure drops the
// connection and is returned as is; nothing is retried.
func (c *Client) call(req *Request) (*Response, error) {
	if err := req.validate(); err != nil {
		return nil, err // unsendable: fail without touching the connection
	}
	req.ID = c.nextID.Add(1)
	cs, err := c.state()
	if err != nil {
		return nil, err
	}
	ch, err := cs.register(req.ID)
	if err != nil {
		c.drop(cs)
		return nil, fmt.Errorf("netblock: connection down: %w", err)
	}
	cs.writeMu.Lock()
	werr := WriteRequest(cs.conn, req)
	cs.writeMu.Unlock()
	if werr != nil {
		cs.forget(req.ID)
		c.drop(cs) // frame may be half-written; the conn is desynced
		return nil, werr
	}
	var timeout <-chan time.Time
	if c.cfg.Timeout > 0 {
		tm := time.NewTimer(c.cfg.Timeout)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.drop(cs)
			return nil, errMidCall
		}
		return resp, resp.Err()
	case <-timeout:
		cs.forget(req.ID)
		c.drop(cs)
		return nil, fmt.Errorf("netblock: %s call: %w", req.Op, ErrTimeout)
	}
}

// Call performs one RPC: an opaque payload under the given op, answered by
// the peer handler's opaque response payload.
func (c *Client) Call(op OpCode, payload []byte) ([]byte, error) {
	resp, err := c.call(&Request{Op: op, Payload: payload})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}
