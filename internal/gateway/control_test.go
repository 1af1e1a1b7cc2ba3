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

// TestSubmitCodecPreControlCompat pins the wire compatibility contract: a
// frame without the optional control section — exactly what every encoder
// predating the control plane emits — still decodes, to a spec with no
// control policy.
func TestSubmitCodecPreControlCompat(t *testing.T) {
	old := EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Seed: 3, DurationSec: 8}})
	got, err := DecodeSubmit(old)
	if err != nil {
		t.Fatalf("pre-control frame rejected: %v", err)
	}
	if got.Spec.Control != "" || got.Spec.ControlEpochSec != 0 {
		t.Fatalf("pre-control frame decoded a control section: %+v", got.Spec)
	}
	// And the uncontrolled encoding itself is byte-identical to the
	// pre-control layout: no suffix at all.
	withCtl := EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Seed: 3, DurationSec: 8, Control: "noop", ControlEpochSec: 1}})
	if len(withCtl) != len(old)+1+len("noop")+4 {
		t.Fatalf("control suffix is %d bytes over the base frame, want %d",
			len(withCtl)-len(old), 1+len("noop")+4)
	}
}

func TestSubmitCodecRejectsMalformedControl(t *testing.T) {
	valid := EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Seed: 1, Control: "oracle", ControlEpochSec: 5}})
	oversized := append(append([]byte(nil), valid[:len(valid)-1-len("oracle")-4]...), maxControlLen+1)
	oversized = append(oversized, strings.Repeat("x", maxControlLen+1)...)
	oversized = binary.LittleEndian.AppendUint32(oversized, 5)
	unprintable := append([]byte(nil), valid...)
	unprintable[len(unprintable)-5] = ' ' // last policy byte
	cases := map[string][]byte{
		"zero-length control":  append(append([]byte(nil), valid[:len(valid)-1-len("oracle")-4]...), 0),
		"oversized control":    oversized,
		"truncated epoch sec":  valid[:len(valid)-1],
		"trailing byte":        append(append([]byte(nil), valid...), 0),
		"unprintable control":  unprintable,
		"missing control body": valid[:len(valid)-len("oracle")-4],
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
		"controlled with kills": func() StudySpec {
			s := base
			s.Control = "noop"
			s.LeaderKills = 1
			return s
		}(),
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
