package consensus

import (
	"fmt"
	"testing"

	"ebslab/internal/wire/wiretest"
)

// TestEncodingsUnchanged pins every message type's frame to the bytes
// EncodeMessage emitted before it moved onto internal/wire.
func TestEncodingsUnchanged(t *testing.T) {
	for i, m := range codecSamples() {
		wiretest.CheckEncoding(t, fmt.Sprintf("msg-%d-%s", i, m.Type), EncodeMessage(&m))
	}
}
