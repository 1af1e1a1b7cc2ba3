package sketch

import (
	"testing"

	"ebslab/internal/wire/wiretest"
)

// TestEncodingsUnchanged pins the SKS2 frame to the bytes EncodeBinary emitted
// when the layout was captured. The populated set also pins the hashes behind
// the HLL registers (xrand.Mix64).
func TestEncodingsUnchanged(t *testing.T) {
	s := NewSet(Config{TopK: 4, SegPerVD: 2, HLLPrecision: 4, DurationSec: 3, TputCapSum: 1 << 20})
	for i := 0; i < 24; i++ {
		rec := fuzzRecord(i)
		s.Observe(&rec)
	}
	wiretest.CheckEncoding(t, "set-populated", s.EncodeBinary())
	wiretest.CheckEncoding(t, "set-empty", NewSet(Config{HLLPrecision: 4}).EncodeBinary())
}
