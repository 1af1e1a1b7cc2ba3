package netblock

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler executes one decoded request and produces its response. The
// server calls handlers from one goroutine per connection, so a handler
// shared across connections must be safe for concurrent use. The fabric
// coordinator (internal/fabric) and the gateway (internal/gateway) are the
// handlers.
type Handler interface {
	Handle(req *Request) *Response
}

// Server exposes one Handler over a net.Listener. Each connection gets a
// goroutine that reads a request, executes it and writes its response
// before reading the next, so a slow request stalls only its own
// connection.
type Server struct {
	h Handler

	wg       sync.WaitGroup
	listener net.Listener

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	shutdown bool // set under connMu; new conns are refused once true

	closeOnce sync.Once
	closed    chan struct{}

	hookMu sync.Mutex
	hook   FaultHook

	faults atomic.Int64

	requests atomic.Int64
}

// Fault is a server-side injected failure mode.
type Fault uint8

// Injectable faults. Each is applied in serveConn, after decode and before
// or instead of the normal response write, so in-process (net.Pipe) and TCP
// connections see identical behaviour.
const (
	// FaultNone serves the request normally (a DelayUS may still apply).
	FaultNone Fault = iota
	// FaultReset closes the connection before executing the request.
	FaultReset
	// FaultDrop executes the request but never writes the response.
	FaultDrop
	// FaultError answers StatusError without executing the request.
	FaultError
	// FaultTruncate executes, writes a partial response frame, then resets.
	FaultTruncate
	// FaultGarbage executes, writes a garbage frame, then resets.
	FaultGarbage
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultReset:
		return "reset"
	case FaultDrop:
		return "drop"
	case FaultError:
		return "error"
	case FaultTruncate:
		return "truncate"
	case FaultGarbage:
		return "garbage"
	}
	return fmt.Sprintf("Fault(%d)", uint8(f))
}

// FaultDecision is a hook's verdict for one request. DelayUS, when
// positive, stalls the connection before the fault (or normal service)
// applies.
type FaultDecision struct {
	Fault   Fault
	DelayUS int64
}

// FaultHook decides, per decoded request, whether and how to misbehave.
// Hooks must be safe for concurrent use (one serveConn goroutine per
// connection calls them).
type FaultHook func(req *Request) FaultDecision

// SetFaultHook installs (or, with nil, removes) the fault hook.
func (s *Server) SetFaultHook(h FaultHook) {
	s.hookMu.Lock()
	s.hook = h
	s.hookMu.Unlock()
}

func (s *Server) faultHook() FaultHook {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	return s.hook
}

// FaultsInjected returns how many requests a fault was applied to (delays
// included).
func (s *Server) FaultsInjected() int64 { return s.faults.Load() }

// NewHandlerServer serves h.
func NewHandlerServer(h Handler) *Server {
	return &Server{h: h, closed: make(chan struct{}), conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections until the listener is closed. It returns the
// listener's final error (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.connMu.Lock()
	if s.shutdown {
		s.connMu.Unlock()
		l.Close()
		return nil
	}
	s.listener = l
	s.connMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		// Registration and the WaitGroup increment happen atomically with
		// the shutdown check: a connection accepted while Close is running
		// either lands in conns before Close sweeps them (and is closed and
		// awaited there), or observes shutdown here and is refused. Without
		// this, a conn accepted concurrently with Close was never closed and
		// its handler goroutine leaked past Close's wait.
		s.connMu.Lock()
		if s.shutdown {
			s.connMu.Unlock()
			conn.Close()
			continue // the listener's own Close ends the accept loop
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
		}()
	}
}

// Close stops accepting, closes active connections, and waits for the
// connection goroutines to drain.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.connMu.Lock()
		s.shutdown = true
		if s.listener != nil {
			s.listener.Close()
		}
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
}

// Requests returns how many requests the server has executed.
func (s *Server) Requests() int64 { return s.requests.Load() }

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		req, err := ReadRequest(conn)
		if err != nil {
			return // EOF or broken pipe ends the connection
		}
		var d FaultDecision
		if h := s.faultHook(); h != nil {
			d = h(req)
		}
		if d.Fault != FaultNone || d.DelayUS > 0 {
			s.faults.Add(1)
		}
		if d.DelayUS > 0 {
			time.Sleep(time.Duration(d.DelayUS) * time.Microsecond)
		}
		switch d.Fault {
		case FaultReset:
			return // connection reset before execution
		case FaultError:
			err = WriteResponse(conn, &Response{
				ID: req.ID, Status: StatusError, Payload: []byte("injected fault"),
			})
			if err != nil {
				return
			}
			continue
		}
		resp := s.execute(req)
		switch d.Fault {
		case FaultDrop:
			continue // executed, but the response vanishes
		case FaultTruncate:
			var buf bytes.Buffer
			if WriteResponse(&buf, resp) == nil && buf.Len() > 1 {
				conn.Write(buf.Bytes()[:buf.Len()/2])
			}
			return
		case FaultGarbage:
			conn.Write(bytes.Repeat([]byte{0xA5}, headerSize+8))
			return
		}
		if WriteResponse(conn, resp) != nil {
			return
		}
	}
}

// execute counts and dispatches one request to the handler.
func (s *Server) execute(req *Request) *Response {
	s.requests.Add(1)
	return s.h.Handle(req)
}
