package netblock

import (
	"net"
	"sync"
	"sync/atomic"
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

	requests atomic.Int64
}

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
		s.requests.Add(1)
		if WriteResponse(conn, s.h.Handle(req)) != nil {
			return
		}
	}
}
