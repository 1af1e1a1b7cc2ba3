package netblock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// reqFrame assembles a raw request header (plus optional payload bytes) so
// the decode tests can craft frames the encoder would refuse to produce.
func reqFrame(id uint64, op OpCode, length uint32, payload []byte) []byte {
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint64(hdr[0:], id)
	hdr[8] = byte(op)
	binary.LittleEndian.PutUint32(hdr[9:], length)
	return append(hdr, payload...)
}

// respFrame assembles a raw response header plus optional payload bytes.
func respFrame(id uint64, status uint8, length uint32, payload []byte) []byte {
	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint64(hdr[0:], id)
	hdr[8] = status
	binary.LittleEndian.PutUint32(hdr[9:], length)
	return append(hdr, payload...)
}

// TestWireLayout pins the frame bytes: a 13-byte little-endian header
// (id u64 | op-or-status u8 | length u32) followed by the payload, in both
// directions.
func TestWireLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRequest(&buf, 0x0807060504030201, OpHeartbeat, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, byte(OpHeartbeat), 2, 0, 0, 0, 'h', 'i'}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("request frame = % x, want % x", buf.Bytes(), want)
	}
	if !bytes.Equal(want, reqFrame(0x0807060504030201, OpHeartbeat, 2, []byte("hi"))) {
		t.Fatal("reqFrame helper disagrees with the encoder")
	}
	buf.Reset()
	if err := WriteResponse(&buf, &Response{ID: 0x0807060504030201, Status: StatusRedirect, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	want[8] = StatusRedirect
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("response frame = % x, want % x", buf.Bytes(), want)
	}
}

// TestReadRequestErrors drives ReadRequest through every malformed-frame
// class: each must surface a typed error — never a panic, never a hang on a
// finite reader, never an allocation sized by the attacker's header.
func TestReadRequestErrors(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
		want error // errors.Is target; nil means "any error"
	}{
		{"empty stream", nil, io.EOF},
		{"truncated header", reqFrame(1, OpHeartbeat, 0, nil)[:headerSize-3], io.ErrUnexpectedEOF},
		{"one header byte", []byte{0x01}, io.ErrUnexpectedEOF},
		{"zero opcode", reqFrame(1, OpCode(0), 0, nil), ErrUnknownOp},
		{"unknown opcode", reqFrame(1, OpCode(42), 0, nil), ErrUnknownOp},
		{"first opcode past the table", reqFrame(1, OpTenantStats+1, 0, nil), ErrUnknownOp},
		{"all-ones garbage", bytes.Repeat([]byte{0xFF}, headerSize), ErrUnknownOp},
		{"oversized length prefix", reqFrame(1, OpHeartbeat, maxPayload+1, nil), ErrPayloadTooLarge},
		{"max length prefix", reqFrame(1, OpHeartbeat, ^uint32(0), nil), ErrPayloadTooLarge},
		{"shard length inside its larger cap", reqFrame(1, OpShardResult, maxPayload+1, nil), io.ErrUnexpectedEOF},
		{"oversized shard length prefix", reqFrame(1, OpShardResult, maxShardPayload+1, nil), ErrPayloadTooLarge},
		{"oversized append-entries length prefix", reqFrame(1, OpAppendEntries, maxShardPayload+1, nil), ErrPayloadTooLarge},
		{"header without payload", reqFrame(1, OpSubmitStudy, 4096, nil), io.ErrUnexpectedEOF},
		{"short payload", reqFrame(1, OpSubmitStudy, 64, []byte("ten bytes.")), io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := ReadRequest(bytes.NewReader(tc.wire))
			if err == nil {
				t.Fatalf("decoded %+v from malformed frame", req)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadResponseErrors is the response-side decode table.
func TestReadResponseErrors(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
		want error
	}{
		{"empty stream", nil, io.EOF},
		{"truncated header", respFrame(1, StatusOK, 0, nil)[:headerSize-2], io.ErrUnexpectedEOF},
		{"oversized length prefix", respFrame(1, StatusOK, maxPayload+1, nil), ErrPayloadTooLarge},
		{"max length prefix", respFrame(1, StatusOK, ^uint32(0), nil), ErrPayloadTooLarge},
		{"payload missing", respFrame(1, StatusOK, 512, nil), io.ErrUnexpectedEOF},
		{"payload short", respFrame(1, StatusError, 64, []byte("boom")), io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ReadResponse(bytes.NewReader(tc.wire))
			if err == nil {
				t.Fatalf("decoded %+v from malformed frame", resp)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestWriteRequestValidation checks the encoder refuses unframeable requests
// before any byte hits the wire, so a bad request cannot desync a healthy
// connection.
func TestWriteRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"zero opcode", Request{}, ErrUnknownOp},
		{"unknown opcode", Request{Op: OpCode(99)}, ErrUnknownOp},
		{"oversized payload", Request{Op: OpHeartbeat, Payload: make([]byte, maxPayload+1)}, ErrPayloadTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := writeRequest(&buf, tc.req.ID, tc.req.Op, tc.req.Payload)
			if err == nil {
				t.Fatal("invalid request encoded")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			if buf.Len() != 0 {
				t.Fatalf("invalid request leaked %d bytes onto the wire", buf.Len())
			}
		})
	}
}

// TestDecoderBoundsAllocation pins the chunked-payload defence: a header
// claiming the full 8 MiB backed by an empty stream must fail after
// committing at most one chunk, not the attacker's full claim.
func TestDecoderBoundsAllocation(t *testing.T) {
	wire := respFrame(1, StatusOK, maxPayload, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadResponse(bytes.NewReader(wire))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error = %v, want unexpected EOF", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("decoder committed %d bytes against a header-only stream (chunk is %d)", delta, allocChunk)
	}
}

// TestReadPayloadCommitment pins how far ahead of the bytes a decoder
// commits memory: a header claims the 1 GiB shard-result cap, the peer
// delivers k bytes and hangs up, and everything the read allocated on the
// way — every buffer it grew through, not just the last — stays within
// 4k plus four chunks.
func TestReadPayloadCommitment(t *testing.T) {
	for _, k := range []int{0, 1, allocChunk, 3*allocChunk + 777, 1 << 20} {
		wire := reqFrame(1, OpShardResult, MaxShardResultPayload, make([]byte, k))
		var err error
		alloc := measureAlloc(func() { _, err = ReadRequest(bytes.NewReader(wire)) })
		if err != io.ErrUnexpectedEOF {
			t.Errorf("k=%d: error = %v, want io.ErrUnexpectedEOF", k, err)
		}
		if bound := uint64(4*k + 4*allocChunk); alloc > bound {
			t.Errorf("k=%d: reading allocated %d bytes, bound %d", k, alloc, bound)
		}
	}
}

// TestReadPayloadAllocation pins what a frame that does arrive costs: for a
// k-byte payload everything the read allocated stays within 1.5k plus four
// chunks — the pieces read before the frame's buffer is committed are half of
// it, and nothing is regrown — and a peer that stalls a quarter of the way
// in has cost no more than what it sent plus two chunks.
func TestReadPayloadAllocation(t *testing.T) {
	for _, k := range []int{1, allocChunk, 3*allocChunk + 777, 1 << 20, 12 << 20} {
		payload := make([]byte, k)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		wire := reqFrame(1, OpShardResult, uint32(k), payload)
		var req *Request
		var err error
		alloc := measureAlloc(func() { req, err = ReadRequest(bytes.NewReader(wire)) })
		if err != nil || !bytes.Equal(req.Payload, payload) {
			t.Fatalf("k=%d: read failed or corrupted the payload: %v", k, err)
		}
		if bound := uint64(k + k/2 + 4*allocChunk); alloc > bound {
			t.Errorf("k=%d: reading allocated %d bytes, bound %d", k, alloc, bound)
		}
		alloc = measureAlloc(func() { _, err = ReadRequest(bytes.NewReader(wire[:headerSize+k/4])) })
		if err != io.ErrUnexpectedEOF {
			t.Errorf("k=%d: stalled read returned %v, want io.ErrUnexpectedEOF", k, err)
		}
		if bound := uint64(k/4 + 2*allocChunk); alloc > bound {
			t.Errorf("k=%d: a peer that stalled at %d bytes cost %d, bound %d", k, k/4, alloc, bound)
		}
	}
}

// TestLargePayloadRoundTrip exercises the multi-chunk readPayload path with
// a payload several chunks long.
func TestLargePayloadRoundTrip(t *testing.T) {
	payload := make([]byte, 3*allocChunk+777)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	req := &Request{ID: 5, Op: OpShardResult, Payload: payload}
	if err := writeRequest(&buf, req.ID, req.Op, req.Payload); err != nil {
		t.Fatalf("writeRequest: %v", err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("multi-chunk payload corrupted in round trip")
	}
	if err := WriteResponse(&buf, &Response{ID: 5, Payload: payload}); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	gr, err := ReadResponse(&buf)
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if !bytes.Equal(gr.Payload, payload) {
		t.Fatal("multi-chunk response payload corrupted in round trip")
	}
}
