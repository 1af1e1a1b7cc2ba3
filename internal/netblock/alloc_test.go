package netblock

import (
	"bytes"
	"net"
	"testing"
)

var raceEnabled bool // set by race_test.go

// TestCallSteadyStateAllocs pins what one echo Call allocates end to end,
// client and server together, over net.Pipe, whatever the payload size: on
// each side a frame header written and one read (both escape through
// io.Writer and io.Reader) and the decoded frame with its payload, plus the
// handler's response. Measured: 9 at 64 B and at 64 KiB (amd64, Go 1.24);
// the budget of 10 is that plus at most 15 %.
func TestCallSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 10
	srv := NewHandlerServer(&EchoHandler{})
	cc, sc := net.Pipe()
	go srv.Serve(&stubListener{conns: oneConn(sc)}) //nolint:errcheck — ends with the stub listener
	defer srv.Close()
	c := NewClient(cc)
	defer c.Close()
	for _, size := range []int{64, 64 << 10} {
		payload := bytes.Repeat([]byte{0x5A}, size)
		call := func() {
			got, err := c.Call(OpHeartbeat, payload)
			if err != nil || len(got) != size {
				t.Fatalf("echo of %d bytes = %d bytes, %v", size, len(got), err)
			}
		}
		call()
		allocs := testing.AllocsPerRun(50, call)
		t.Logf("allocations per %d-byte echo call: %.0f", size, allocs)
		if allocs > budget {
			t.Errorf("a %d-byte echo call allocates %.0f times; budget is %d", size, allocs, budget)
		}
	}
}
