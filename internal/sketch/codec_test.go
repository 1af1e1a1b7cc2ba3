package sketch

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebslab/internal/cluster"
	"ebslab/internal/trace"
)

// synthSet builds a deterministic, well-populated set: a few hundred
// records across several VDs, segments, seconds, and both directions.
func synthSet(seed int64, vds int) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := NewSet(Config{TopK: 8, SegPerVD: 4, DurationSec: 10})
	for i := 0; i < 400; i++ {
		rec := trace.Record{
			TimeUS:  int64(rng.Intn(10)) * 1_000_000,
			Op:      trace.Op(rng.Intn(2)),
			Size:    int32(4096 * (1 + rng.Intn(32))),
			Offset:  int64(rng.Intn(1<<20) * 4096),
			VD:      int32ToVDID(rng.Intn(vds)),
			Segment: int32ToSegID(rng.Intn(64)),
		}
		rec.Latency[0] = float32(50 + rng.Intn(500))
		rec.Latency[2] = float32(10 + rng.Intn(100))
		s.Observe(&rec)
	}
	return s
}

// TestSetCodecRoundTrip pins the codec contract: decode(encode(s)) carries
// the exact Fingerprint of s, and the encoding is canonical (re-encoding
// the decoded set reproduces the same bytes).
func TestSetCodecRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		s := synthSet(seed, 12)
		wire := s.EncodeBinary()
		got, err := DecodeSet(wire)
		if err != nil {
			t.Fatalf("seed %d: DecodeSet: %v", seed, err)
		}
		if got.Fingerprint() != s.Fingerprint() {
			t.Fatalf("seed %d: fingerprint drifted across the wire", seed)
		}
		if string(got.EncodeBinary()) != string(wire) {
			t.Fatalf("seed %d: re-encoding is not canonical", seed)
		}
	}
	// The empty set must round-trip too (a worker can finish a shard with
	// zero IOs).
	empty := NewSet(Config{})
	got, err := DecodeSet(empty.EncodeBinary())
	if err != nil {
		t.Fatalf("empty set: %v", err)
	}
	if got.Fingerprint() != empty.Fingerprint() {
		t.Fatal("empty set fingerprint drifted")
	}
}

// TestSetCodecMergePreservesFingerprint is the fabric's real requirement:
// merging sets decoded off the wire must fingerprint identically to merging
// the originals in process.
func TestSetCodecMergePreservesFingerprint(t *testing.T) {
	mk := func() (*Set, *Set, *Set) {
		// Disjoint VD key spaces, like engine shards.
		a := NewSet(Config{TopK: 8, SegPerVD: 4, DurationSec: 10})
		b := NewSet(Config{TopK: 8, SegPerVD: 4, DurationSec: 10})
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 300; i++ {
			rec := trace.Record{
				TimeUS:  int64(rng.Intn(10)) * 1_000_000,
				Op:      trace.Op(rng.Intn(2)),
				Size:    4096,
				Offset:  int64(i) * 4096,
				Segment: int32ToSegID(rng.Intn(32)),
			}
			if i%2 == 0 {
				rec.VD = int32ToVDID(rng.Intn(6))
				a.Observe(&rec)
			} else {
				rec.VD = int32ToVDID(6 + rng.Intn(6))
				b.Observe(&rec)
			}
		}
		dst := NewSet(Config{TopK: 8, SegPerVD: 4, DurationSec: 10})
		return a, b, dst
	}

	a1, b1, inProc := mk()
	inProc.Merge(a1)
	inProc.Merge(b1)

	a2, b2, viaWire := mk()
	da, err := DecodeSet(a2.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	db, err := DecodeSet(b2.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	viaWire.Merge(da)
	viaWire.Merge(db)

	if inProc.Fingerprint() != viaWire.Fingerprint() {
		t.Fatal("merged fingerprint differs between in-process and via-wire shard sets")
	}
}

// TestSetCodecRejectsCorruption drives the decoder over systematically
// damaged frames: every truncation must fail cleanly, and single-byte
// corruptions must either fail with ErrCodec or decode into a set that
// still re-encodes canonically — never panic.
func TestSetCodecRejectsCorruption(t *testing.T) {
	wire := synthSet(3, 8).EncodeBinary()
	for cut := 0; cut < len(wire); cut += 7 {
		if _, err := DecodeSet(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		} else if !errors.Is(err, ErrCodec) {
			t.Fatalf("truncation at %d: error %v not ErrCodec", cut, err)
		}
	}
	for pos := 0; pos < len(wire); pos += 11 {
		mut := append([]byte(nil), wire...)
		mut[pos] ^= 0x5a
		s, err := DecodeSet(mut)
		if err != nil {
			continue
		}
		if string(s.EncodeBinary()) == "" {
			t.Fatalf("corruption at %d decoded to an unencodable set", pos)
		}
	}
	if _, err := DecodeSet(nil); err == nil {
		t.Fatal("empty input decoded")
	}
}

// TestDecodeRefusesSKS1 feeds the decoder the version-1 frames captured
// before the layout stated each parameter once (testdata/sks1): a frame of
// the old layout is refused at its magic.
func TestDecodeRefusesSKS1(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "sks1", "*.hex"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no SKS1 frames under testdata/sks1 (%v)", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := DecodeSet(frame); !errors.Is(err, ErrCodec) || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("%s: DecodeSet = %v, want an ErrCodec bad-magic refusal", path, err)
		}
	}
}

func int32ToVDID(v int) cluster.VDID       { return cluster.VDID(v) }
func int32ToSegID(v int) cluster.SegmentID { return cluster.SegmentID(v) }
