package gateway

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebslab/internal/invariant"
)

// TestTenantStatsJSON pins the OpTenantStats reply bytes: the embedded
// ledger's counters encode inline between Tenant and Tokens, in the ledger's
// field order, exactly as the flat struct they replaced did.
func TestTenantStatsJSON(t *testing.T) {
	full := TenantStats{
		Tenant: "alice",
		StudyLedger: invariant.StudyLedger{
			Submitted: 1, Rejected: 2, Deduped: 3, Granted: 4, Completed: 5,
			Failed: 6, CanceledQueued: 7, CanceledRunning: 8, Queued: 9, Running: 10,
		},
		Tokens: 11,
	}
	for _, c := range []struct {
		st   TenantStats
		want string
	}{
		{full, `{"Tenant":"alice","Submitted":1,"Rejected":2,"Deduped":3,"Granted":4,"Completed":5,"Failed":6,` +
			`"CanceledQueued":7,"CanceledRunning":8,"Queued":9,"Running":10,"Tokens":11}`},
		{TenantStats{}, `{"Tenant":"","Submitted":0,"Rejected":0,"Deduped":0,"Granted":0,"Completed":0,"Failed":0,` +
			`"CanceledQueued":0,"CanceledRunning":0,"Queued":0,"Running":0,"Tokens":0}`},
	} {
		if got := string(mustJSON(c.st)); got != c.want {
			t.Errorf("TenantStats JSON\n got %s\nwant %s", got, c.want)
		}
		var back TenantStats
		if err := json.Unmarshal([]byte(c.want), &back); err != nil {
			t.Fatal(err)
		}
		if string(mustJSON(back)) != c.want {
			t.Errorf("decoding %s does not round-trip", c.want)
		}
	}
}

func TestSubmitCodecRoundTrip(t *testing.T) {
	reqs := []SubmitRequest{
		{Tenant: "alice", Spec: StudySpec{Seed: 42}},
		{Tenant: "b", Spec: StudySpec{
			Seed: -7, DurationSec: 8, Nodes: 4, Users: 16, MaxVDs: 100,
			EventSampleEvery: 8, TraceSampleEvery: 1, Shards: 5, LeaderKills: 1,
		}},
		{Tenant: "tenant-64-chars-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", Spec: StudySpec{}},
	}
	for _, want := range reqs {
		enc := EncodeSubmit(want)
		got, err := DecodeSubmit(enc)
		if err != nil {
			t.Fatalf("DecodeSubmit(%q): %v", want.Tenant, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if !bytes.Equal(EncodeSubmit(got), enc) {
			t.Fatalf("re-encode of %q is not canonical", want.Tenant)
		}
	}
}

func TestSubmitCodecRejectsMalformed(t *testing.T) {
	valid := EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Seed: 1}})
	cases := map[string][]byte{
		"empty":               nil,
		"bad magic":           append([]byte("EBGX"), valid[4:]...),
		"zero tenant length":  append(append([]byte("EBG2"), 0), valid[10:]...),
		"oversized tenant":    append(append([]byte("EBG2"), 200), valid[5:]...),
		"unprintable tenant":  EncodeSubmit(SubmitRequest{Tenant: "a b", Spec: StudySpec{}}),
		"unprintable control": EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Control: "re active"}}),
		"oversized scenario":  EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Scenario: strings.Repeat("x", maxScenarioLen+1)}}),
		"no scenario length":  valid[:len(valid)-1],
		"truncated spec":      valid[:len(valid)-8],
		"trailing byte":       append(append([]byte(nil), valid...), 0),
	}
	for name, frame := range cases {
		if _, err := DecodeSubmit(frame); !errors.Is(err, ErrWire) {
			t.Errorf("%s: got %v, want ErrWire", name, err)
		}
	}
}

func TestSnapshotReplyCodecRoundTrip(t *testing.T) {
	reps := []SnapshotReply{
		{StudyID: 1, State: StateQueued},
		{StudyID: 9, State: StateRunning, Seq: 3, VDsDone: 7, VDsTotal: 20,
			SketchFP: "sha256:abcdef", Sketch: []byte{1, 2, 3, 0, 255}},
	}
	for _, want := range reps {
		enc := EncodeSnapshotReply(want)
		got, err := DecodeSnapshotReply(enc)
		if err != nil {
			t.Fatalf("DecodeSnapshotReply: %v", err)
		}
		if got.StudyID != want.StudyID || got.State != want.State || got.Seq != want.Seq ||
			got.VDsDone != want.VDsDone || got.VDsTotal != want.VDsTotal ||
			got.SketchFP != want.SketchFP || !bytes.Equal(got.Sketch, want.Sketch) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if !bytes.Equal(EncodeSnapshotReply(got), enc) {
			t.Fatal("re-encode is not canonical")
		}
	}
}

func TestSnapshotReplyCodecRejectsMalformed(t *testing.T) {
	valid := EncodeSnapshotReply(SnapshotReply{StudyID: 2, State: StateDone, SketchFP: "fp", Sketch: []byte{9}})
	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      append([]byte("EBG9"), valid[4:]...),
		"short header":   valid[:10],
		"fp overrun":     append(append([]byte(nil), valid[:29]...), 255),
		"sketch overrun": valid[:len(valid)-1],
		"trailing byte":  append(append([]byte(nil), valid...), 0),
	}
	for name, frame := range cases {
		if _, err := DecodeSnapshotReply(frame); !errors.Is(err, ErrWire) {
			t.Errorf("%s: got %v, want ErrWire", name, err)
		}
	}
}

func TestStudyIDCodec(t *testing.T) {
	id, err := DecodeStudyID(EncodeStudyID(77))
	if err != nil || id != 77 {
		t.Fatalf("got (%d, %v), want (77, nil)", id, err)
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, make([]byte, 9)} {
		if _, err := DecodeStudyID(bad); !errors.Is(err, ErrWire) {
			t.Errorf("len %d: got %v, want ErrWire", len(bad), err)
		}
	}
}

// TestDecodeSubmitRefusesEBG1 feeds the decoder the version-1 submit frames
// captured before the layout dropped its optional sections and check byte
// (testdata/ebg1): each is refused at its magic.
func TestDecodeSubmitRefusesEBG1(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "ebg1", "*.hex"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no EBG1 frames under testdata/ebg1 (%v)", err)
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
		if _, err := DecodeSubmit(frame); !errors.Is(err, ErrWire) || !strings.Contains(err.Error(), "bad submit magic") {
			t.Errorf("%s: DecodeSubmit = %v, want an ErrWire bad-magic refusal", path, err)
		}
	}
}

// FuzzGatewayCodec drives every binary gateway decoder with arbitrary bytes.
// The contract under fuzz: a decoder either rejects the frame with an error
// wrapping ErrWire, or accepts it — and an accepted frame must re-encode to
// the identical bytes (the codecs are bijective, so no two frames decode to
// the same value and nothing on the wire is ignored).
func FuzzGatewayCodec(f *testing.F) {
	f.Add(EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Seed: 42, DurationSec: 8, Shards: 5, LeaderKills: 1}}))
	f.Add(EncodeSubmit(SubmitRequest{Tenant: "carol", Spec: StudySpec{Seed: 7, DurationSec: 16, Control: "predictive-holt", ControlEpochSec: 2}}))
	f.Add(EncodeSnapshotReply(SnapshotReply{StudyID: 3, State: StateRunning, Seq: 2, VDsDone: 4, VDsTotal: 9, SketchFP: "fp", Sketch: []byte{1, 2}}))
	f.Add(EncodeSubmit(SubmitRequest{Tenant: "dave", Spec: StudySpec{Seed: 9, Scenario: "bufferbloat,period=8"}}))
	f.Add(EncodeStudyID(123456))
	f.Add([]byte("EBG2"))
	f.Add([]byte("EBG3 not a frame"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if sub, err := DecodeSubmit(data); err == nil {
			if !bytes.Equal(EncodeSubmit(sub), data) {
				t.Fatalf("submit re-encode diverges for %x", data)
			}
		} else if !errors.Is(err, ErrWire) {
			t.Fatalf("DecodeSubmit error %v does not wrap ErrWire", err)
		}
		if rep, err := DecodeSnapshotReply(data); err == nil {
			if !bytes.Equal(EncodeSnapshotReply(rep), data) {
				t.Fatalf("snapshot re-encode diverges for %x", data)
			}
		} else if !errors.Is(err, ErrWire) {
			t.Fatalf("DecodeSnapshotReply error %v does not wrap ErrWire", err)
		}
		if id, err := DecodeStudyID(data); err == nil {
			if !bytes.Equal(EncodeStudyID(id), data) {
				t.Fatalf("study-ID re-encode diverges for %x", data)
			}
		} else if !errors.Is(err, ErrWire) {
			t.Fatalf("DecodeStudyID error %v does not wrap ErrWire", err)
		}
	})
}
