package netblock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestServerSurvivesGarbageFrames injects raw garbage and truncated frames:
// the server must drop the bad connection without crashing and keep serving
// healthy clients.
func TestServerSurvivesGarbageFrames(t *testing.T) {
	_, _, addr := ServeEcho(t)
	c, err := DialConfig("tcp", addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(OpHeartbeat, nil); err != nil {
		t.Fatal(err)
	}

	// Garbage: random bytes that parse into an absurd request header.
	evil, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	evil.Write(bytes.Repeat([]byte{0xFF}, 64))
	evil.Close()

	// Truncated frame: a header promising more payload than sent.
	trunc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], 1)
	hdr[8] = byte(OpHeartbeat)
	binary.LittleEndian.PutUint32(hdr[9:], 4096)
	trunc.Write(hdr[:])
	trunc.Write([]byte("short"))
	trunc.Close()

	// The healthy client still works.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Call(OpHeartbeat, make([]byte, block))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy client broken after garbage injection: %v", err)
		}
	}
}

// faultyConn wraps a net.Conn and fails writes after a budget, simulating a
// frontend-network fault mid-stream.
type faultyConn struct {
	net.Conn
	budget int
}

func (f *faultyConn) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errors.New("injected network fault")
	}
	if len(p) > f.budget {
		n, _ := f.Conn.Write(p[:f.budget])
		f.budget = 0
		return n, errors.New("injected partial write")
	}
	f.budget -= len(p)
	return f.Conn.Write(p)
}

func TestClientSurfacesInjectedWriteFault(t *testing.T) {
	_, _, addr := ServeEcho(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Allow one payload-free exchange, then cut the link mid-frame.
	c := NewClient(&faultyConn{Conn: raw, budget: headerSize + 10})
	defer c.Close()
	if _, err := c.Call(OpHeartbeat, nil); err != nil {
		t.Fatalf("call within budget: %v", err)
	}
	if _, err := c.Call(OpHeartbeat, make([]byte, block)); err == nil {
		t.Fatal("call over faulty link succeeded")
	}
}

// TestReadRequestEOFMidPayload verifies the codec reports short payloads.
func TestReadRequestEOFMidPayload(t *testing.T) {
	var buf bytes.Buffer
	var hdr [headerSize]byte
	hdr[8] = byte(OpHeartbeat)
	binary.LittleEndian.PutUint32(hdr[9:], 100)
	buf.Write(hdr[:])
	buf.WriteString("only-20-bytes-here!!")
	if _, err := ReadRequest(&buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short payload error = %v, want unexpected EOF", err)
	}
}

// TestUnknownOpIsAnError verifies an unknown op is rejected at encode time —
// before it ever touches the wire — and the connection stays alive.
func TestUnknownOpIsAnError(t *testing.T) {
	c, _, _ := startServer(t)
	resp, err := c.call(OpCode(42), nil)
	if err == nil {
		t.Fatalf("unknown op accepted: %+v", resp)
	}
	// Connection still serves.
	if _, err := c.Call(OpHeartbeat, nil); err != nil {
		t.Fatalf("connection dead after unknown op: %v", err)
	}
}
