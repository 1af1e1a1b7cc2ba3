package consensus

import (
	"fmt"
	"testing"

	"ebslab/internal/wire/wiretest"
)

// TestEncodingsUnchanged pins every message type's version-2 frame to the
// bytes EncodeMessage emitted when the layout was captured.
func TestEncodingsUnchanged(t *testing.T) {
	for i, m := range codecSamples() {
		wiretest.CheckEncoding(t, fmt.Sprintf("msg-%d-%s", i, m.Type), EncodeMessage(&m))
	}
}
