package consensus

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var captureEncodings = flag.Bool("capture-encodings", false, "rewrite testdata/encodings from the current encoders (a deliberate format change only)")

// checkEncoding compares got against the bytes the encoder produced when the
// fixture was captured (testdata/encodings/<name>.hex).
func checkEncoding(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "encodings", name+".hex")
	if *captureEncodings {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding changed: %d bytes, captured %d", name, len(got), len(want))
	}
}

// TestEncodingsUnchanged pins every message type's frame to the bytes
// EncodeMessage emitted before it moved onto internal/wire.
func TestEncodingsUnchanged(t *testing.T) {
	for i, m := range codecSamples() {
		checkEncoding(t, fmt.Sprintf("msg-%d-%s", i, m.Type), EncodeMessage(&m))
	}
}
