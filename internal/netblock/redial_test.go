package netblock_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ebslab/internal/netblock"
	"ebslab/internal/netblock/netblocktest"
)

// TestRedialAfterReset: a call makes one attempt. The call the reset hits
// fails, the next call redials and succeeds, and the handler executed exactly
// that one successful call — the failed one was not repeated behind the
// caller's back.
func TestRedialAfterReset(t *testing.T) {
	var n atomic.Int64
	proxy := netblocktest.New(func(*netblock.Request) netblocktest.Fault {
		if n.Add(1) == 1 {
			return netblocktest.Reset
		}
		return netblocktest.None
	})
	h := &netblock.EchoHandler{}
	l := netblock.ListenTCP(t)
	netblock.ServeOn(t, h, proxy.Listen(l))
	c, err := netblock.DialConfig("tcp", l.Addr().String(), netblock.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(netblock.OpHeartbeat, nil); err == nil {
		t.Fatal("call through a reset connection succeeded")
	}
	if _, err := c.Call(netblock.OpHeartbeat, make([]byte, stressBlock)); err != nil {
		t.Fatalf("call after the reset did not redial: %v", err)
	}
	if got := c.Retries(); got != 1 {
		t.Fatalf("client redialed %d times, want 1", got)
	}
	if got := h.Calls(); got != 1 {
		t.Fatalf("handler executed %d calls, want 1: the reset call was retried", got)
	}
}

// TestRedialerDialsOnFirstCall: NewRedialer connects on its first call, not
// at construction; a failed dial fails only that call and the next one dials
// again; and the first connection is not counted as a retry.
func TestRedialerDialsOnFirstCall(t *testing.T) {
	h := &netblock.EchoHandler{}
	l := netblock.ListenTCP(t)
	netblock.ServeOn(t, h, l)
	var dials atomic.Int64
	var refuse atomic.Bool
	refuse.Store(true)
	c := netblock.NewRedialer(func() (net.Conn, error) {
		dials.Add(1)
		if refuse.Load() {
			return nil, errors.New("refused")
		}
		return net.Dial("tcp", l.Addr().String())
	}, netblock.Config{Timeout: 5 * time.Second})
	defer c.Close()
	if got := dials.Load(); got != 0 {
		t.Fatalf("constructing the redialer dialed %d times", got)
	}
	if _, err := c.Call(netblock.OpHeartbeat, nil); err == nil {
		t.Fatal("call through a refused dial succeeded")
	}
	refuse.Store(false)
	for i := 0; i < 2; i++ {
		if _, err := c.Call(netblock.OpHeartbeat, nil); err != nil {
			t.Fatalf("call %d after the dial recovered: %v", i, err)
		}
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dialed %d times, want 2 (the refused one and one connection)", got)
	}
	if got := c.Retries(); got != 0 {
		t.Fatalf("Retries = %d after the first connection, want 0", got)
	}
	if got := h.Calls(); got != 2 {
		t.Fatalf("handler executed %d calls, want 2", got)
	}
}
