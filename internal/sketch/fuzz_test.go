package sketch

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
	"ebslab/internal/wire"
)

// fuzzOps decodes the fuzzer's byte stream into (key, weight) pairs: 5
// bytes per op, one key byte (keeping collisions likely) and four weight
// bytes.
func fuzzOps(data []byte) [][2]uint64 {
	var ops [][2]uint64
	for len(data) >= 5 {
		key := uint64(data[0])
		w := uint64(binary.LittleEndian.Uint32(data[1:5]))
		ops = append(ops, [2]uint64{key, w})
		data = data[5:]
	}
	return ops
}

// FuzzSpaceSavingAddMerge checks the summary's structural invariants under
// arbitrary weighted streams split at an arbitrary point and merged both
// ways: capacity respected, mass conserved by Add, counts never below their
// error terms, and merge commutative.
func FuzzSpaceSavingAddMerge(f *testing.F) {
	f.Add([]byte{1, 2, 0, 0, 0, 3, 4, 0, 0, 0}, uint8(4), uint8(1))
	f.Add([]byte("heavy-hitters-here-we-go!"), uint8(2), uint8(12))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, splitRaw uint8) {
		k := int(kRaw%32) + 1
		ops := fuzzOps(data)
		var total uint64
		whole := NewSpaceSaving(k)
		for _, op := range ops {
			whole.Add(op[0], op[1])
			total += op[1]
		}
		if whole.Len() > k {
			t.Fatalf("len %d exceeds capacity %d", whole.Len(), k)
		}
		var mass uint64
		for _, e := range whole.Entries() {
			if e.Err > e.Count {
				t.Fatalf("entry %+v has err > count", e)
			}
			mass += e.Count
		}
		if mass != total {
			t.Fatalf("mass %d, want total weight %d", mass, total)
		}

		split := 0
		if len(ops) > 0 {
			split = int(splitRaw) % (len(ops) + 1)
		}
		build := func(part [][2]uint64) *SpaceSaving {
			s := NewSpaceSaving(k)
			for _, op := range part {
				s.Add(op[0], op[1])
			}
			return s
		}
		ab := build(ops[:split])
		ab.Merge(build(ops[split:]))
		ba := build(ops[split:])
		ba.Merge(build(ops[:split]))
		da, db := new(wire.Digest), new(wire.Digest)
		ab.AppendHash(da)
		ba.AppendHash(db)
		if da.Sum() != db.Sum() {
			t.Fatal("merge not commutative")
		}
		if ab.Len() > k {
			t.Fatalf("merged len %d exceeds capacity %d", ab.Len(), k)
		}
		mass = 0
		for _, e := range ab.Entries() {
			mass += e.Count
		}
		if mass > total {
			t.Fatalf("merged mass %d exceeds stream weight %d", mass, total)
		}
	})
}

// FuzzLogQuantileMerge checks the quantile sketch on arbitrary value
// streams: merge must be commutative and byte-identical to whole-stream
// ingest, counts conserve, and quantiles stay inside the ingested range.
func FuzzLogQuantileMerge(f *testing.F) {
	f.Add([]byte{10, 0, 200, 3, 7, 9, 0, 0, 255, 1}, uint8(3))
	f.Add([]byte("quantiles"), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, splitRaw uint8) {
		// Two bytes per value: mantissa byte and exponent byte (spanning
		// sub-1 to huge, plus exact zeros).
		var vals []float64
		for i := 0; i+1 < len(data); i += 2 {
			v := float64(data[i]) * math.Pow(2, float64(int(data[i+1])-128))
			vals = append(vals, v)
		}
		whole := NewLogQuantile(0.01)
		for _, v := range vals {
			whole.Add(v, 1)
		}
		if whole.total != uint64(len(vals)) {
			t.Fatalf("count %d, want %d", whole.total, len(vals))
		}
		split := 0
		if len(vals) > 0 {
			split = int(splitRaw) % (len(vals) + 1)
		}
		build := func(part []float64) *LogQuantile {
			l := NewLogQuantile(0.01)
			for _, v := range part {
				l.Add(v, 1)
			}
			return l
		}
		ab := build(vals[:split])
		ab.Merge(build(vals[split:]))
		dw, dm := new(wire.Digest), new(wire.Digest)
		whole.AppendHash(dw)
		ab.AppendHash(dm)
		if dw.Sum() != dm.Sum() {
			t.Fatal("merged state differs from whole-stream ingest")
		}
		if len(vals) == 0 {
			return
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		for _, q := range []float64{0, 0.5, 1} {
			got := whole.Quantile(q)
			if math.IsNaN(got) {
				t.Fatalf("q=%g NaN on non-empty sketch", q)
			}
			// Bucket midpoints stay within alpha of the range ends; zero
			// and negative values are reported as exactly 0.
			if got < 0 || (hi > 0 && got > hi*1.02) {
				t.Fatalf("q=%g estimate %g outside [0, %g]", q, got, hi*1.02)
			}
		}
	})
}

// FuzzSetCodec drives DecodeSet over arbitrary bytes: it must never panic
// or over-allocate, and whenever it accepts a frame, the decoded set must
// re-encode canonically (byte-identical), fingerprint stably, and merge into
// a fresh set of its own Config without changing either — the properties the
// fabric's shard-result path and its merge depend on.
func FuzzSetCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SKS2 but not really"))
	// Each shape twice: at the smallest HLL precision (16 registers; ~150 and
	// ~1100 bytes) and at the default (4096; 8 KB of registers per frame).
	// The small ones come first because the engine minimizes every mutant
	// that looks interesting one byte at a time, which on an 8 KB frame
	// outlasts the whole CI smoke budget: whatever the workers do before they
	// reach the large seeds is most of what a short run executes.
	for _, p := range []int{4, 0} {
		cfg := Config{TopK: 4, SegPerVD: 2, DurationSec: 4, HLLPrecision: p}
		f.Add(NewSet(cfg).EncodeBinary())
		populated := NewSet(cfg)
		for i := 0; i < 64; i++ {
			rec := fuzzRecord(i)
			populated.Observe(&rec)
		}
		f.Add(populated.EncodeBinary())
	}
	// Two latency buckets 2^40 apart: memory must follow the buckets, not
	// their span (TestDecodeSparseBucketsAllocation).
	f.Add(sparseLatencySet(1 << 40).EncodeBinary())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSet(data)
		if err != nil {
			return
		}
		wire := s.EncodeBinary()
		s2, err := DecodeSet(wire)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if s2.Fingerprint() != s.Fingerprint() {
			t.Fatal("fingerprint unstable across re-encode")
		}
		if !bytes.Equal(s2.EncodeBinary(), wire) {
			t.Fatal("encoding not canonical")
		}
		merged := NewSet(s.Config())
		merged.Merge(s)
		if merged.Fingerprint() != s.Fingerprint() {
			t.Fatal("merging into a fresh set of the frame's config moved the fingerprint")
		}
		if !bytes.Equal(merged.EncodeBinary(), wire) {
			t.Fatal("merging into a fresh set of the frame's config moved the encoding")
		}
	})
}

// fuzzRecord synthesizes record i of a small deterministic stream.
func fuzzRecord(i int) trace.Record {
	rec := trace.Record{
		TimeUS:  int64(i%4) * 1_000_000,
		Op:      trace.Op(i % 2),
		Size:    int32(4096 * (1 + i%8)),
		Offset:  int64(i) * 4096,
		VD:      cluster.VDID(i % 5),
		Segment: cluster.SegmentID(i % 9),
	}
	rec.Latency[0] = float32(100 + i)
	return rec
}
