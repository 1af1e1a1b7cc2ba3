package consensus

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// codecSamples covers every message type with populated fields; shared by
// the round-trip test, the encodings test and the fuzz seed corpus.
func codecSamples() []Message {
	return []Message{
		{Type: MsgApp, From: 0, To: 2, Term: 9, PrevIndex: 10, PrevTerm: 8, Commit: 9, Entries: []Entry{
			{Term: 9, Index: 11, Cmd: []byte("hello")},
			{Term: 9, Index: 12}, // nil Cmd
			{Term: 9, Index: 13, Cmd: bytes.Repeat([]byte{0xAB}, 300)},
		}},
		{Type: MsgAppResp, From: 2, To: 0, Term: 9, Success: true, MatchIndex: 13},
		{Type: MsgAppResp, From: 2, To: 0, Term: 9, Success: false, MatchIndex: 4},
		{Type: MsgApp, From: 1, To: 0, Term: 1}, // empty append
	}
}

// v1Frames returns the version-1 frames captured before the vote fields
// left the layout (testdata/v1), by file name.
func v1Frames(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "v1", "*.hex"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no version-1 frames under testdata/v1 (%v)", err)
	}
	frames := make(map[string][]byte, len(paths))
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		if frames[path], err = hex.DecodeString(strings.TrimSpace(string(raw))); err != nil {
			tb.Fatalf("%s: %v", path, err)
		}
	}
	return frames
}

// TestDecodeRefusesV1: every version-1 frame is refused at its version
// byte.
func TestDecodeRefusesV1(t *testing.T) {
	for path, frame := range v1Frames(t) {
		if _, err := DecodeMessage(frame); !errors.Is(err, ErrMsgWire) || !strings.Contains(err.Error(), "version 1") {
			t.Errorf("%s: DecodeMessage = %v, want an ErrMsgWire version-1 refusal", path, err)
		}
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	for _, m := range codecSamples() {
		m := m
		wire := EncodeMessage(&m)
		got, err := DecodeMessage(wire)
		if err != nil {
			t.Fatalf("decode %v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(*got, m) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, m)
		}
		// Every truncation of a valid frame must error, never panic.
		for cut := 0; cut < len(wire); cut++ {
			if _, err := DecodeMessage(wire[:cut]); err == nil {
				t.Fatalf("%v truncated to %d bytes decoded successfully", m.Type, cut)
			} else if !errors.Is(err, ErrMsgWire) {
				t.Fatalf("truncation error %v does not wrap ErrMsgWire", err)
			}
		}
		// Trailing garbage is rejected: a frame is exactly one message.
		if _, err := DecodeMessage(append(append([]byte(nil), wire...), 0x00)); err == nil {
			t.Fatalf("%v with trailing byte decoded successfully", m.Type)
		}
	}
}

func TestMessageCodecRejects(t *testing.T) {
	base := codecSamples()[0]
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad version", func(b []byte) []byte { b[0] = 99; return b }},
		{"bad type", func(b []byte) []byte { b[1] = 0; return b }},
		{"unknown type", func(b []byte) []byte { b[1] = 200; return b }},
		{"unbacked entry count", func(b []byte) []byte {
			// Entry-count field is the last u32 of the fixed header.
			off := msgFixedSize - 4
			b[off], b[off+1], b[off+2], b[off+3] = 0xFF, 0xFF, 0x0F, 0x00
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := tc.mutate(EncodeMessage(&base))
			if _, err := DecodeMessage(wire); err == nil {
				t.Fatal("malformed frame decoded successfully")
			} else if !errors.Is(err, ErrMsgWire) {
				t.Fatalf("error %v does not wrap ErrMsgWire", err)
			}
		})
	}
}

// sortedFrames lists frames in file-name order, so the seed numbering is
// stable.
func sortedFrames(frames map[string][]byte) [][]byte {
	names := make([]string, 0, len(frames))
	for name := range frames {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = frames[name]
	}
	return out
}

// FuzzMessageCodec: DecodeMessage must never panic on arbitrary bytes, and
// everything it accepts must survive a re-encode/re-decode round trip
// unchanged (the canonical-form property a transport relies on).
func FuzzMessageCodec(f *testing.F) {
	for _, m := range codecSamples() {
		m := m
		f.Add(EncodeMessage(&m))
	}
	f.Add([]byte{})
	f.Add([]byte{msgWireVersion})
	for _, frame := range sortedFrames(v1Frames(f)) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			if !errors.Is(err, ErrMsgWire) {
				t.Fatalf("decode error %v does not wrap ErrMsgWire", err)
			}
			return
		}
		wire := EncodeMessage(m)
		m2, err := DecodeMessage(wire)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("canonical round trip diverged:\n got %+v\nwant %+v", m2, m)
		}
	})
}
