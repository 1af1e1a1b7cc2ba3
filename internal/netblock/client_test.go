package netblock

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestInFlightCallFailsWhenConnDies: a call whose connection dies
// mid-response must get a real error promptly — not hang forever waiting
// for a response that will never come.
func TestInFlightCallFailsWhenConnDies(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	c := NewClient(cliConn)
	defer c.Close()
	go func() {
		// Accept the request, then kill the connection without answering —
		// a server crash mid-call.
		ReadRequest(srvConn)
		srvConn.Close()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(OpHeartbeat, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded against a server that died mid-call")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after the connection died")
	}
}

// TestServerCloseMidCallReturnsWithinDeadline kills a real TCP server while
// a call is stalled inside it: the client must return well before its
// (generous) deadline, because the read of the response sees the
// connection die.
func TestServerCloseMidCallReturnsWithinDeadline(t *testing.T) {
	h := &slowHandler{}
	l := ListenTCP(t)
	srv := ServeOn(t, h, l)
	c, err := DialConfig("tcp", l.Addr().String(), Config{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(OpHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	// Stall the next request long enough for Close to land mid-call.
	h.stall.Store(int64(300 * time.Millisecond))
	go func() {
		time.Sleep(30 * time.Millisecond)
		srv.Close()
	}()
	start := time.Now()
	_, err = c.Call(OpHeartbeat, make([]byte, block))
	if err == nil {
		t.Fatal("call succeeded through a server killed mid-call")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("call took %v to fail; the deadline, not the conn death, saved it", elapsed)
	}
}

// slowHandler echoes, holding each request for stall (a time.Duration)
// first.
type slowHandler struct {
	EchoHandler
	stall atomic.Int64
}

func (h *slowHandler) Handle(req *Request) *Response {
	time.Sleep(time.Duration(h.stall.Load()))
	return h.EchoHandler.Handle(req)
}

// TestCallTimesOutOnSilentServer: a peer that accepts the request but never
// answers (and keeps the connection open) is caught by the per-call
// deadline.
func TestCallTimesOutOnSilentServer(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	c := NewClientConfig(cliConn, Config{Timeout: 50 * time.Millisecond})
	defer c.Close()
	silent := make(chan struct{})
	go func() {
		ReadRequest(srvConn) // swallow the request, never reply
		<-silent
		srvConn.Close()
	}()
	defer close(silent)
	_, err := c.Call(OpHeartbeat, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
}

// TestNoRetriesWithoutBudget: a client over a fixed connection has no dialer,
// so the call that loses it fails and nothing is redialed.
func TestNoRetriesWithoutBudget(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	c := NewClient(cliConn)
	defer c.Close()
	go func() {
		ReadRequest(srvConn)
		srvConn.Close()
	}()
	if _, err := c.Call(OpHeartbeat, nil); err == nil {
		t.Fatal("call succeeded over a dying pipe")
	}
	if got := c.Retries(); got != 0 {
		t.Fatalf("client without a dialer redialed %d times", got)
	}
}

// TestReplyToAnotherRequestFailsTheCall: a peer that answers with another
// request's ID has broken the exchange. Under the zero Config (no deadline)
// the call must still fail promptly rather than wait for a reply that never
// comes, and the next call must not take the stale frame, which carries
// exactly the ID it would be given, for its own.
func TestReplyToAnotherRequestFailsTheCall(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	c := NewClient(cliConn)
	defer c.Close()
	go func() {
		defer srvConn.Close()
		stale := true
		for {
			req, err := ReadRequest(srvConn)
			if err != nil {
				return
			}
			resp := &Response{ID: req.ID, Payload: req.Payload}
			if stale {
				resp = &Response{ID: req.ID + 1, Payload: []byte("stale")}
				stale = false
			}
			if WriteResponse(srvConn, resp) != nil {
				return
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(OpHeartbeat, []byte("first"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call accepted a response to another request")
		}
	case <-time.After(time.Second):
		t.Fatal("call hung on a response to another request")
	}
	if got, err := c.Call(OpHeartbeat, []byte("second")); err == nil && string(got) != "second" {
		t.Fatalf("later call returned %q, another call's response", got)
	}
}

// TestCloseAbortsCallInFlight: Close takes only the lock that guards the
// connection, so it ends a call blocked on a silent server instead of
// waiting behind it, and every later call reports ErrClosed.
func TestCloseAbortsCallInFlight(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	defer srvConn.Close()
	c := NewClient(cliConn)
	sent := make(chan struct{})
	go func() {
		ReadRequest(srvConn) // swallow the request, never reply
		close(sent)
	}()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(OpHeartbeat, nil)
		done <- err
	}()
	<-sent // the call has written its request; it waits for the response
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call on a closed client succeeded")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not abort the call in flight")
	}
	if _, err := c.Call(OpHeartbeat, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close = %v, want ErrClosed", err)
	}
}

// TestClosedClientLeavesNoGoroutines: a client runs on its callers'
// goroutines, so one that has dialed, called and been closed leaves the
// goroutine count where it found it once the server's side of the
// connection has wound down.
func TestClosedClientLeavesNoGoroutines(t *testing.T) {
	_, _, addr := ServeEcho(t)
	goroutines := runtime.NumGoroutine()
	c, err := DialConfig("tcp", addr, Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Call(OpHeartbeat, make([]byte, block)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	for i := 0; runtime.NumGoroutine() > goroutines && i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after Close, %d before the dial:\n%s", got, goroutines, buf[:runtime.Stack(buf, true)])
	}
}
