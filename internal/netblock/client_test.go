package netblock

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestInFlightCallFailsWhenConnDies is the regression for the readLoop
// contract: a call whose connection dies mid-response must get a real error
// promptly — not hang forever on its response channel.
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
// (generous) deadline, via the readLoop's connection-death signal.
func TestServerCloseMidCallReturnsWithinDeadline(t *testing.T) {
	srv, _, addr := ServeEcho(t)
	c, err := DialConfig("tcp", addr, Config{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(OpHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	// Stall the next request long enough for Close to land mid-call.
	srv.SetFaultHook(func(*Request) FaultDecision {
		return FaultDecision{DelayUS: 300_000}
	})
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

// TestRedialAfterReset: a call makes one attempt. The call the reset hits
// fails, the next call redials and succeeds, and the handler executed exactly
// that one successful call — the failed one was not repeated behind the
// caller's back.
func TestRedialAfterReset(t *testing.T) {
	srv, h, addr := ServeEcho(t)
	var n atomic.Int64
	srv.SetFaultHook(func(*Request) FaultDecision {
		if n.Add(1) == 1 {
			return FaultDecision{Fault: FaultReset}
		}
		return FaultDecision{}
	})
	c, err := DialConfig("tcp", addr, Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(OpHeartbeat, nil); err == nil {
		t.Fatal("call through a reset connection succeeded")
	}
	if _, err := c.Call(OpHeartbeat, make([]byte, block)); err != nil {
		t.Fatalf("call after the reset did not redial: %v", err)
	}
	if got := c.Retries(); got != 1 {
		t.Fatalf("client redialed %d times, want 1", got)
	}
	if got := h.Calls(); got != 1 {
		t.Fatalf("handler executed %d calls, want 1: the reset call was retried", got)
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
