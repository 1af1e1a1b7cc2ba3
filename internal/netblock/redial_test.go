package netblock_test

import (
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
