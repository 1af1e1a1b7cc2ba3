package gateway

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestSubmitCodecScenarioRoundTrip(t *testing.T) {
	reqs := []SubmitRequest{
		{Tenant: "alice", Spec: StudySpec{Seed: 42, Scenario: "bufferbloat"}},
		{Tenant: "bob", Spec: StudySpec{
			Seed: 7, DurationSec: 16, Nodes: 4, Users: 16,
			EventSampleEvery: 8, TraceSampleEvery: 1,
			Scenario: "elastic,hi=2,step=4",
		}},
		{Tenant: "carol", Spec: StudySpec{
			Seed: 9, Control: "predictive", ControlEpochSec: 2,
			Scenario: "batchburst,wave=20,width=4",
		}},
	}
	for _, want := range reqs {
		enc := EncodeSubmit(want)
		got, err := DecodeSubmit(enc)
		if err != nil {
			t.Fatalf("DecodeSubmit(%s): %v", want.Spec.Scenario, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if !bytes.Equal(EncodeSubmit(got), enc) {
			t.Fatalf("re-encode of %s is not canonical", want.Spec.Scenario)
		}
	}
}

func TestSubmitCodecRejectsMalformedScenario(t *testing.T) {
	valid := EncodeSubmit(SubmitRequest{Tenant: "alice", Spec: StudySpec{Seed: 1, Scenario: "elastic"}})
	base := valid[:len(valid)-1-len("elastic")] // through the control section
	oversized := append(append([]byte(nil), base...), maxScenarioLen+1)
	oversized = append(oversized, strings.Repeat("x", maxScenarioLen+1)...)
	unprintable := append([]byte(nil), valid...)
	unprintable[len(unprintable)-1] = ' ' // last scenario byte
	cases := map[string][]byte{
		"missing scenario section":    base,
		"zero length ahead of a body": append(append(append([]byte(nil), base...), 0), "elastic"...),
		"oversized scenario":          oversized,
		"truncated scenario body":     valid[:len(valid)-1],
		"trailing byte":               append(append([]byte(nil), valid...), 0),
		"unprintable scenario":        unprintable,
	}
	for name, frame := range cases {
		if _, err := DecodeSubmit(frame); !errors.Is(err, ErrWire) {
			t.Errorf("%s: got %v, want ErrWire", name, err)
		}
	}
}

func TestScenarioSpecValidation(t *testing.T) {
	base := StudySpec{Seed: 1, DurationSec: 8}
	cases := map[string]StudySpec{
		"unknown scenario": func() StudySpec { s := base; s.Scenario = "quakestorm"; return s }(),
		"bad param":        func() StudySpec { s := base; s.Scenario = "elastic,bogus=1"; return s }(),
		"replay not servable": func() StudySpec {
			s := base
			s.Scenario = "replay,path=/etc/passwd"
			return s
		}(),
		"oversized scenario": func() StudySpec {
			s := base
			s.Scenario = "elastic,step=" + strings.Repeat("9", maxScenarioLen)
			return s
		}(),
	}
	for name, spec := range cases {
		if err := spec.withDefaults().Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := base
	ok.Scenario = "bufferbloat,duty=0.5"
	if err := ok.withDefaults().Validate(); err != nil {
		t.Errorf("valid scenario spec rejected: %v", err)
	}
	okCtl := ok
	okCtl.Control = "reactive"
	if err := okCtl.withDefaults().Validate(); err != nil {
		t.Errorf("scenario + control spec rejected: %v", err)
	}
}

func TestScenarioSpecKey(t *testing.T) {
	plain := StudySpec{Seed: 9}
	withSc := StudySpec{Seed: 9, Scenario: "bufferbloat"}
	if plain.withDefaults() == withSc.withDefaults() {
		t.Fatal("scenario and scenario-less specs must dedup separately")
	}
	other := StudySpec{Seed: 9, Scenario: "elastic"}
	if withSc.withDefaults() == other.withDefaults() {
		t.Fatal("different scenarios must dedup separately")
	}
	ctl := StudySpec{Seed: 9, Control: "reactive", Scenario: "bufferbloat"}
	if ctl.withDefaults() == withSc.withDefaults() {
		t.Fatal("control + scenario must dedup separately from scenario alone")
	}
	// The scenario field stays empty through normalization.
	spelled := StudySpec{Seed: 9, DurationSec: 8, Nodes: 4, Users: 16, EventSampleEvery: 8, TraceSampleEvery: 1}
	if plain.withDefaults() != spelled.withDefaults() {
		t.Fatal("scenario-less specs stopped normalizing to one key")
	}
}
