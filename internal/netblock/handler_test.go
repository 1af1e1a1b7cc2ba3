package netblock

import (
	"net"
	"sync/atomic"
	"testing"
)

// EchoHandler is the suite's stand-in service: it answers every request
// with the request's own payload, counts the calls and payload bytes it
// executed, and refuses OpDrain so tests can provoke a remote StatusError.
// It is exported (from a _test file) so the external stress tests share it.
type EchoHandler struct {
	calls atomic.Int64
	bytes atomic.Int64
}

// RefusedOp is the one op EchoHandler answers with StatusError.
const RefusedOp = OpDrain

func (h *EchoHandler) Handle(req *Request) *Response {
	h.calls.Add(1)
	h.bytes.Add(int64(len(req.Payload)))
	if req.Op == RefusedOp {
		return &Response{ID: req.ID, Status: StatusError, Payload: []byte("refused")}
	}
	return &Response{ID: req.ID, Status: StatusOK, Payload: req.Payload}
}

// Calls returns how many requests the handler executed.
func (h *EchoHandler) Calls() int64 { return h.calls.Load() }

// Bytes returns how many request payload bytes the handler executed (equal
// to the bytes it echoed back, refusals aside).
func (h *EchoHandler) Bytes() int64 { return h.bytes.Load() }

// ServeEcho starts an echo server on loopback TCP, closed with the test.
func ServeEcho(t *testing.T) (*Server, *EchoHandler, string) {
	t.Helper()
	h := &EchoHandler{}
	l := ListenTCP(t)
	return ServeOn(t, h, l), h, l.Addr().String()
}

// ListenTCP listens on a free loopback TCP port.
func ListenTCP(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return l
}

// ServeOn serves h on l, closed with the test.
func ServeOn(t *testing.T, h Handler, l net.Listener) *Server {
	t.Helper()
	srv := NewHandlerServer(h)
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	return srv
}

// block is the payload size the suite sends where the size is incidental.
const block = 4096
