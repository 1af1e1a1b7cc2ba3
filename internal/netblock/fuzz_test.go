package netblock

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// decodeAllocBound is the most a decoder may allocate for a stream of n
// bytes: append's amortized regrowth of what actually arrived, plus a few
// chunks committed ahead of it. A decoder that trusted a hostile length
// prefix would allocate the claim (up to 8 MiB, or 1 GiB on the shard ops)
// and blow through this on any short input.
func decodeAllocBound(n int) uint64 { return 8*uint64(n) + 4*allocChunk }

// measureAlloc runs fn and returns the bytes it allocated.
func measureAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeErrorIsTyped reports whether err is one of the codec's declared
// failure modes for a finite stream.
func decodeErrorIsTyped(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, ErrUnknownOp) || errors.Is(err, ErrPayloadTooLarge)
}

// checkDecode runs one decoder over data and holds it to the codec's
// contract: it must never panic, never allocate a hostile header's claim
// ahead of the bytes that arrived, fail only with a typed error, and accept
// only frames whose re-encoding (the encoder decode returns) reproduces the
// consumed bytes exactly.
func checkDecode(t *testing.T, data []byte, decode func(io.Reader) (encode func(io.Writer) error, err error)) {
	r := bytes.NewReader(data)
	var encode func(io.Writer) error
	var err error
	alloc := measureAlloc(func() { encode, err = decode(r) })
	if bound := decodeAllocBound(len(data)); alloc > bound {
		t.Fatalf("decoder allocated %d bytes for a %d-byte stream (bound %d)", alloc, len(data), bound)
	}
	if err != nil {
		if !decodeErrorIsTyped(err) {
			t.Fatalf("untyped decode error %v", err)
		}
		return
	}
	var wire bytes.Buffer
	if err := encode(&wire); err != nil {
		t.Fatalf("re-encode of a decoded frame: %v", err)
	}
	if consumed := data[:len(data)-r.Len()]; !bytes.Equal(wire.Bytes(), consumed) {
		t.Fatalf("re-encoded frame % x differs from the %d bytes consumed", wire.Bytes(), len(consumed))
	}
}

// FuzzReadRequest feeds arbitrary bytes to the request decoder (see
// checkDecode). The encoder's own validation re-checks the opcode and the
// per-op payload cap on everything the decoder accepted.
func FuzzReadRequest(f *testing.F) {
	f.Add(reqFrame(1, OpJoinFleet, 0, nil))                                 // control op, empty body
	f.Add(reqFrame(2, OpShardResult, 5, []byte("shard")))                   // large-cap op
	f.Add(reqFrame(3, OpAppendEntries, 3, []byte("log")))                   // consensus op
	f.Add(reqFrame(4, OpSubmitStudy, 4, []byte("EBG2")))                    // gateway op
	f.Add(reqFrame(5, OpHeartbeat, 0, nil)[:headerSize-3])                  // truncated header
	f.Add(reqFrame(6, OpHeartbeat, maxPayload+1, nil))                      // over the per-op cap
	f.Add(reqFrame(7, OpShardResult, maxShardPayload+1, nil))               // over the shard cap
	f.Add(reqFrame(8, OpShardResult, maxShardPayload, []byte("x")))         // huge claim, one byte sent
	f.Add(reqFrame(9, OpCode(0), 0, nil))                                   // unknown opcode
	f.Add(reqFrame(10, OpTenantStats+1, 0, nil))                            // first opcode past the table
	f.Add(reqFrame(11, OpStudyStatus, 100, []byte("only-20-bytes-here!!"))) // EOF mid-payload
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, func(r io.Reader) (func(io.Writer) error, error) {
			req, err := ReadRequest(r)
			return func(w io.Writer) error { return writeRequest(w, req.ID, req.Op, req.Payload) }, err
		})
	})
}

// FuzzReadResponse is the response-side twin of FuzzReadRequest.
func FuzzReadResponse(f *testing.F) {
	f.Add(respFrame(1, StatusOK, 0, nil))
	f.Add(respFrame(2, StatusOK, 5, []byte("reply")))
	f.Add(respFrame(3, StatusError, 4, []byte("boom")))
	f.Add(respFrame(4, StatusRedirect, 6, []byte("leader")))
	f.Add(respFrame(5, StatusOK, 0, nil)[:headerSize-2])               // truncated header
	f.Add(respFrame(6, StatusOK, maxPayload+1, nil))                   // over the cap
	f.Add(respFrame(7, StatusOK, maxPayload, []byte("x")))             // huge claim, one byte sent
	f.Add(respFrame(8, 0xA5, 0, nil))                                  // undefined status
	f.Add(respFrame(9, StatusOK, 100, []byte("only-20-bytes-here!!"))) // EOF mid-payload
	f.Add(bytes.Repeat([]byte{0xA5}, headerSize+8))                    // the server's FaultGarbage frame
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, func(r io.Reader) (func(io.Writer) error, error) {
			resp, err := ReadResponse(r)
			return func(w io.Writer) error {
				resp.Err() // every status byte maps to nil or an error, never a panic
				return WriteResponse(w, resp)
			}, err
		})
	})
}
