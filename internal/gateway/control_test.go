package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ebslab/internal/ebs"
)

func TestSubmitCodecControlRoundTrip(t *testing.T) {
	reqs := []SubmitRequest{
		{Tenant: "alice", Spec: StudySpec{Seed: 42, Control: "noop", ControlEpochSec: 1}},
		{Tenant: "bob", Spec: StudySpec{
			Seed: 7, DurationSec: 16, Nodes: 4, Users: 16,
			EventSampleEvery: 8, TraceSampleEvery: 1,
			Control: "predictive-holt", ControlEpochSec: 2,
		}},
	}
	for _, want := range reqs {
		enc := EncodeSubmit(want)
		got, err := DecodeSubmit(enc)
		if err != nil {
			t.Fatalf("DecodeSubmit(%s): %v", want.Spec.Control, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if !bytes.Equal(EncodeSubmit(got), enc) {
			t.Fatalf("re-encode of %s is not canonical", want.Spec.Control)
		}
	}
}

// TestSubmitCodecAbsentSections pins the one layout: a spec without a control
// policy or a scenario still carries both sections, each a zero length (and
// the control section its epoch), so every frame has the same shape and a
// named section costs exactly its bytes.
func TestSubmitCodecAbsentSections(t *testing.T) {
	bare := EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Seed: 3, DurationSec: 8}})
	if tail := bare[len(bare)-6:]; !bytes.Equal(tail, make([]byte, 6)) {
		t.Fatalf("absent sections frame as % x, want six zero bytes", tail)
	}
	got, err := DecodeSubmit(bare)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Control != "" || got.Spec.ControlEpochSec != 0 || got.Spec.Scenario != "" {
		t.Fatalf("absent sections decoded as %+v", got.Spec)
	}
	full := EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{
		Seed: 3, DurationSec: 8, Control: "noop", ControlEpochSec: 1, Scenario: "bufferbloat",
	}})
	if want := len(bare) + len("noop") + len("bufferbloat"); len(full) != want {
		t.Fatalf("named sections frame to %d bytes, want %d", len(full), want)
	}
}

func TestSubmitCodecRejectsMalformedControl(t *testing.T) {
	valid := EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Seed: 1, Control: "oracle", ControlEpochSec: 5}})
	// valid ends: u8 6 | "oracle" | u32 5 | u8 0 (no scenario).
	base := valid[:len(valid)-1-len("oracle")-4-1]
	oversized := append(append([]byte(nil), base...), maxControlLen+1)
	oversized = append(oversized, strings.Repeat("x", maxControlLen+1)...)
	oversized = append(binary.LittleEndian.AppendUint32(oversized, 5), 0)
	unprintable := append([]byte(nil), valid...)
	unprintable[len(unprintable)-1-4-1] = ' ' // last policy byte
	cases := map[string][]byte{
		"zero length ahead of a body": append(append(append([]byte(nil), base...), 0), valid[len(base)+1:]...),
		"oversized control":           oversized,
		"truncated epoch sec":         valid[:len(valid)-2],
		"trailing byte":               append(append([]byte(nil), valid...), 0),
		"unprintable control":         unprintable,
		"missing control body":        valid[:len(base)+1],
	}
	for name, frame := range cases {
		if _, err := DecodeSubmit(frame); !errors.Is(err, ErrWire) {
			t.Errorf("%s: got %v, want ErrWire", name, err)
		}
	}
}

func TestControlSpecValidation(t *testing.T) {
	base := StudySpec{Seed: 1, DurationSec: 8}
	cases := map[string]StudySpec{
		"epoch without policy":  func() StudySpec { s := base; s.ControlEpochSec = 2; return s }(),
		"unknown policy":        func() StudySpec { s := base; s.Control = "nope"; return s }(),
		"epoch over duration":   func() StudySpec { s := base; s.Control = "noop"; s.ControlEpochSec = 9; return s }(),
		"epoch of the duration": func() StudySpec { s := base; s.Control = "noop"; s.ControlEpochSec = 8; return s }(),
		"controlled on shards":  func() StudySpec { s := base; s.Control = "noop"; s.Shards = 2; return s }(),
	}
	for name, spec := range cases {
		if err := spec.withDefaults().Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := base
	ok.Control = "predictive"
	if err := ok.withDefaults().Validate(); err != nil {
		t.Errorf("valid controlled spec rejected: %v", err)
	}
	if got := ok.withDefaults().ControlEpochSec; got != 1 {
		t.Errorf("default epoch for an 8s study = %d, want 1", got)
	}
	// The rule and its wording are the engine's: an epoch spanning the window
	// is refused as the CLI refuses it, and the default passes at every length.
	whole := base
	whole.Control, whole.ControlEpochSec = "reactive", 8
	want := ebs.RunSpec{Opts: ebs.Options{DurationSec: 8}, Control: "reactive", EpochSec: 8}.Validate()
	if err := whole.withDefaults().Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("epoch of the duration: gateway says %v, the engine %v", err, want)
	}
	for dur := 1; dur <= 17; dur++ {
		s := StudySpec{Seed: 1, DurationSec: dur, Control: "reactive"}
		if err := s.withDefaults().Validate(); err != nil {
			t.Errorf("default epoch on a %ds study rejected: %v", dur, err)
		}
	}
}

func TestControlSpecKey(t *testing.T) {
	plain := StudySpec{Seed: 9}
	controlled := StudySpec{Seed: 9, Control: "reactive"}
	if plain.withDefaults() == controlled.withDefaults() {
		t.Fatal("controlled and uncontrolled specs must dedup separately")
	}
	other := StudySpec{Seed: 9, Control: "oracle"}
	if controlled.withDefaults() == other.withDefaults() {
		t.Fatal("different policies must dedup separately")
	}
	// Control fields stay zero through normalization of an uncontrolled spec.
	spelled := StudySpec{Seed: 9, DurationSec: 8, Nodes: 4, Users: 16, EventSampleEvery: 8, TraceSampleEvery: 1}
	if plain.withDefaults() != spelled.withDefaults() {
		t.Fatal("uncontrolled specs stopped normalizing to one key")
	}
}
