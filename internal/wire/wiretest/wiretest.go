// Package wiretest holds the fixture check shared by every package that pins
// a wire format to captured bytes (sketch, fabric, consensus, gateway).
package wiretest

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var capture = flag.Bool("capture-encodings", false, "rewrite testdata/encodings from the current encoders (a deliberate format change only)")

// CheckEncoding compares got against the bytes the encoder produced when the
// fixture was captured: testdata/encodings/<name>.hex under the calling
// test's package directory.
func CheckEncoding(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "encodings", name+".hex")
	if *capture {
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
