package netblock

import (
	"bytes"
	"net"
	"testing"
)

var raceEnabled bool // set by race_test.go

// TestCallSteadyStateAllocs pins what one echo Call allocates end to end,
// client and server together, over net.Pipe, whatever the payload size and
// however many parts it is given in: on each side a frame header written
// (it escapes through io.Writer, together with the net.Buffers the parts
// are written from) and one read (it escapes through io.Reader) and the
// decoded frame with its payload, plus the handler's response. Measured: 9
// at 64 B, at 64 KiB and at 64 KiB in three parts (amd64, Go 1.24); the
// budget of 10 is that plus at most 15 %, and the parts may cost nothing
// over the single payload.
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
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	rows := []struct {
		name  string
		parts [][]byte
	}{
		{"64 B", [][]byte{big[:64]}},
		{"64 KiB", [][]byte{big}},
		{"64 KiB in 3 parts", [][]byte{big[:21], big[21 : 40<<10], big[40<<10:]}},
	}
	var single float64
	for _, row := range rows {
		want := bytes.Join(row.parts, nil)
		call := func() {
			got, err := c.Call(OpHeartbeat, row.parts...)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: echo of %d bytes = %d bytes, %v; want the parts' concatenation", row.name, len(want), len(got), err)
			}
		}
		call()
		allocs := testing.AllocsPerRun(50, call)
		t.Logf("allocations per %s echo call: %.0f", row.name, allocs)
		if allocs > budget {
			t.Errorf("a %s echo call allocates %.0f times; budget is %d", row.name, allocs, budget)
		}
		if len(row.parts) == 1 {
			single = allocs
		} else if allocs > single {
			t.Errorf("a %s echo call allocates %.0f times, the single-part call %.0f", row.name, allocs, single)
		}
	}
}
