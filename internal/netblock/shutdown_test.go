package netblock

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestCloseWaitsForInflightHandler pins the shutdown contract: Close must
// not return while a connection goroutine is still executing a request.
// A blocking handler parks the in-flight request on a channel; Close may
// only complete after the handler is released.
func TestCloseWaitsForInflightHandler(t *testing.T) {
	h := &blockingHandler{entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewHandlerServer(h)
	entered, release := h.entered, h.release

	cc, sc := net.Pipe()
	defer cc.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(&stubListener{conns: oneConn(sc)}) }()

	cl := NewClient(cc)
	go cl.Call(OpHeartbeat, nil) // parks inside the handler; the response may never land

	<-entered
	closeDone := make(chan struct{})
	go func() {
		srv.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a handler was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closeDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned after the handler finished")
	}
	// The stub listener drains on its own, so Serve may report net.ErrClosed
	// before Close latches; both endings are clean.
	if err := <-serveDone; err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve returned %v after Close", err)
	}
	cl.Close()
}

// blockingHandler echoes, but its first request closes entered and waits
// for release.
type blockingHandler struct {
	EchoHandler
	entered, release chan struct{}
	once             sync.Once
}

func (h *blockingHandler) Handle(req *Request) *Response {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
	return h.EchoHandler.Handle(req)
}

// TestAcceptCloseRace is the regression test for the leak where a
// connection accepted concurrently with Close was never closed and its
// handler goroutine survived Close's wait. The stub listener hands the
// server a connection only after Close has fully completed; the server must
// refuse and close it rather than serving it.
func TestAcceptCloseRace(t *testing.T) {
	srv := NewHandlerServer(&EchoHandler{})

	l := &stubListener{conns: make(chan net.Conn, 1), accepting: make(chan struct{})}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	<-l.accepting // Serve is parked inside Accept
	srv.Close()   // no conns yet: returns immediately, shutdown is latched

	cc, sc := net.Pipe()
	defer cc.Close()
	l.conns <- sc // a conn the accept loop races past Close
	close(l.conns)

	// The server must close the late conn: the peer sees EOF, not a hang.
	cc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := cc.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("late-accepted conn read = %v, want EOF (conn closed by server)", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve never returned after Close and listener exhaustion")
	}
	if got := srv.Requests(); got != 0 {
		t.Fatalf("refused conn executed %d requests", got)
	}
}

// stubListener serves connections from a channel; Accept returns
// net.ErrClosed when the channel is exhausted. Close is a no-op so tests
// control exactly when the accept loop ends. The optional accepting channel
// is closed when Accept is first entered.
type stubListener struct {
	conns      chan net.Conn
	accepting  chan struct{}
	acceptOnce sync.Once
}

func (l *stubListener) Accept() (net.Conn, error) {
	if l.accepting != nil {
		l.acceptOnce.Do(func() { close(l.accepting) })
	}
	c, ok := <-l.conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l *stubListener) Close() error   { return nil }
func (l *stubListener) Addr() net.Addr { return stubAddr{} }

type stubAddr struct{}

func (stubAddr) Network() string { return "stub" }
func (stubAddr) String() string  { return "stub" }

// oneConn returns a channel already holding conn and closed behind it.
func oneConn(conn net.Conn) chan net.Conn {
	ch := make(chan net.Conn, 1)
	ch <- conn
	close(ch)
	return ch
}
