package netblock

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// pipeEcho serves an echo handler over one net.Pipe and returns the
// client's end of it, with its byte count of what the client wrote.
func pipeEcho(t *testing.T) (*Client, *countingConn) {
	t.Helper()
	srv := NewHandlerServer(&EchoHandler{})
	cc, sc := net.Pipe()
	go srv.Serve(&stubListener{conns: oneConn(sc)}) //nolint:errcheck — ends with the stub listener
	t.Cleanup(srv.Close)
	conn := &countingConn{Conn: cc}
	c := NewClientConfig(conn, Config{Timeout: 5 * time.Second})
	t.Cleanup(func() { c.Close() })
	return c, conn
}

// countingConn counts the bytes written through it.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// TestCallSkipsEmptyParts sends payloads with a zero-length part first, in
// the middle, last and throughout over net.Pipe, where a zero-length Write
// blocks until a Read the server never issues: every call must complete
// inside its deadline and be echoed as the parts' concatenation, and only
// the header and the non-empty parts reach the wire.
func TestCallSkipsEmptyParts(t *testing.T) {
	c, conn := pipeEcho(t)
	rows := []struct {
		name  string
		parts [][]byte
	}{
		{"empty first", [][]byte{nil, []byte("abc"), []byte("de")}},
		{"empty middle", [][]byte{[]byte("abc"), {}, []byte("de")}},
		{"empty last", [][]byte{[]byte("abc"), []byte("de"), nil}},
		{"every part empty", [][]byte{nil, {}, nil}},
		{"no parts", nil},
	}
	for _, row := range rows {
		want := bytes.Join(row.parts, nil)
		before := conn.written.Load()
		got, err := c.Call(OpHeartbeat, row.parts...)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: echoed %q, want %q", row.name, got, want)
		}
		if n := conn.written.Load() - before; n != int64(headerSize+len(want)) {
			t.Fatalf("%s: wrote %d bytes, want the %d-byte header and %d payload bytes", row.name, n, headerSize, len(want))
		}
	}
}

// TestOverCapPartsFailBeforeWriting holds the cap to the parts' total: a
// call whose parts are each under the op's cap but together over it fails
// with ErrPayloadTooLarge before any byte is written, and the client's next
// call goes through on the same connection (the client cannot redial).
func TestOverCapPartsFailBeforeWriting(t *testing.T) {
	c, conn := pipeEcho(t)
	half := make([]byte, maxPayload/2+1)
	if _, err := c.Call(OpHeartbeat, half, half); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("over-cap call: %v, want ErrPayloadTooLarge", err)
	}
	if n := conn.written.Load(); n != 0 {
		t.Fatalf("the refused call wrote %d bytes", n)
	}
	got, err := c.Call(OpHeartbeat, half[:3], []byte("xy"))
	if err != nil || len(got) != 5 {
		t.Fatalf("the call after the refusal: %d bytes, %v", len(got), err)
	}
}
