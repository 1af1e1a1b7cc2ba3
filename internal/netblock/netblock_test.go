package netblock

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// startServer spins up an echo server on loopback TCP and returns a
// connected client, the server and its handler.
func startServer(t *testing.T) (*Client, *Server, *EchoHandler) {
	t.Helper()
	srv, h, addr := ServeEcho(t)
	client, err := DialConfig("tcp", addr, Config{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return client, srv, h
}

func TestRoundTripOverTCP(t *testing.T) {
	c, srv, h := startServer(t)
	if got, err := c.Call(OpJoinFleet, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty call = %q, %v", got, err)
	}
	data := bytes.Repeat([]byte{0xAB}, block)
	var sent int64
	for _, op := range []OpCode{OpHeartbeat, OpShardResult, OpSubmitStudy, OpTenantStats} {
		got, err := c.Call(op, data)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip mismatch", op)
		}
		sent += int64(len(data))
	}
	if h.Bytes() != sent {
		t.Fatalf("handler executed %d payload bytes, client sent %d", h.Bytes(), sent)
	}
	if srv.Requests() != 5 || h.Calls() != 5 {
		t.Fatalf("server saw %d requests, handler %d, want 5", srv.Requests(), h.Calls())
	}
}

func TestRemoteErrorsSurface(t *testing.T) {
	c, _, _ := startServer(t)
	_, err := c.Call(RefusedOp, []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("refused call error = %v, want the remote's text", err)
	}
	if _, err := c.Call(RefusedOp, nil); err == nil {
		t.Fatal("second refused call succeeded")
	}
	// The connection must survive errors.
	if _, err := c.Call(OpHeartbeat, make([]byte, block)); err != nil {
		t.Fatalf("connection broken after remote errors: %v", err)
	}
	if c.Retries() != 0 {
		t.Fatalf("remote errors were retried %d times; they are final", c.Retries())
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _, _ := startServer(t)
	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, block)
			for i := 0; i < iters; i++ {
				for j := range buf {
					buf[j] = byte(w*iters + i)
				}
				got, err := c.Call(OpHeartbeat, buf)
				if err != nil {
					errs <- fmt.Errorf("worker %d call: %w", w, err)
					return
				}
				if !bytes.Equal(got, buf) {
					errs <- fmt.Errorf("worker %d got another call's response", w)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestProtocolCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{ID: 7, Op: OpAssignShard, Payload: []byte("abcdefgh")}
	if err := writeRequest(&buf, req.ID, req.Op, req.Payload); err != nil {
		t.Fatalf("writeRequest: %v", err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if got.ID != 7 || got.Op != OpAssignShard || string(got.Payload) != "abcdefgh" {
		t.Fatalf("request round trip: %+v", got)
	}

	resp := &Response{ID: 7, Status: StatusError, Payload: []byte("boom")}
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	gr, err := ReadResponse(&buf)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if gr.Err() == nil || gr.Err().Error() != "netblock: remote: boom" {
		t.Fatalf("error decoding: %v", gr.Err())
	}
}

func TestProtocolRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, maxPayload+1)
	if err := writeRequest(&buf, 0, OpHeartbeat, big); err == nil {
		t.Fatal("oversized request accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized request leaked %d bytes onto the wire", buf.Len())
	}
	if err := WriteResponse(&buf, &Response{Payload: big}); err == nil {
		t.Fatal("oversized response accepted")
	}
	// A malicious length header must be rejected, not allocated.
	hdr := make([]byte, headerSize)
	hdr[8] = StatusOK
	for i := 9; i < 13; i++ {
		hdr[i] = 0xFF
	}
	if _, err := ReadResponse(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized response length accepted")
	}
}

func TestClientFailsCleanlyOnServerClose(t *testing.T) {
	c, srv, _ := startServer(t)
	if _, err := c.Call(OpHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Subsequent calls fail with an error rather than hanging.
	if _, err := c.Call(OpHeartbeat, make([]byte, block)); err == nil {
		t.Fatal("call succeeded after server close")
	}
}

func TestOpCodeString(t *testing.T) {
	seen := map[string]bool{}
	for op := OpJoinFleet; op <= OpTenantStats; op++ {
		if op == opRetired6 || op == opRetired7 {
			if op.Valid() || op.String() != fmt.Sprintf("OpCode(%d)", op) {
				t.Fatalf("retired OpCode %d is valid or named %q", op, op.String())
			}
			continue
		}
		if !op.Valid() {
			t.Fatalf("OpCode %d not valid", op)
		}
		if op.String() == "" || op.String()[0] == 'O' || seen[op.String()] {
			t.Fatalf("OpCode %d string = %q", op, op.String())
		}
		seen[op.String()] = true
	}
	if len(seen) != 10 || OpCode(0).Valid() || (OpTenantStats + 1).Valid() {
		t.Fatalf("protocol defines %d ops, want exactly 10 with nothing valid around them", len(seen))
	}
	if OpCode(99).String() != "OpCode(99)" {
		t.Fatal("unknown opcode string")
	}
}
