package gateway_test

import (
	"context"
	"testing"

	"ebslab/internal/gateway"
	"ebslab/internal/gateway/gatewaytest"
)

// TestE2EControlledStudy pushes controlled studies through a live gateway and
// pins the serving-plane contract for the control plane: a noop-controlled
// study answers its oracle and, byte-identically, its uncontrolled twin's
// dataset; every controlled status carries a decision-log fingerprint; and a
// controlled spec never dedups against its uncontrolled twin.
func TestE2EControlledStudy(t *testing.T) {
	h := gatewaytest.Start(gateway.Config{MaxConcurrent: 2})
	defer h.Close()
	cl, err := h.Client()
	if err != nil {
		t.Fatal(err)
	}

	base := gateway.StudySpec{Seed: 4242, DurationSec: 2, Nodes: 2, Users: 4, MaxVDs: 6, EventSampleEvery: 4}

	noop := base
	noop.Control = "noop"
	sub, err := cl.Submit("alice", noop)
	if err != nil {
		t.Fatalf("submit noop-controlled: %v", err)
	}
	st := pollDone(t, cl, sub.StudyID)
	if st.ControlLogFP == "" {
		t.Error("controlled study status carries no decision-log fingerprint")
	}
	if st.ControlDecisions != 0 {
		t.Errorf("noop made %d decisions, want 0", st.ControlDecisions)
	}
	oracle, err := gatewaytest.RunOracle(context.Background(), noop)
	if err != nil {
		t.Fatal(err)
	}
	if got := (gatewaytest.Oracle{DatasetFP: st.DatasetFP, SketchFP: st.SketchFP, ControlLogFP: st.ControlLogFP}); got != oracle {
		t.Errorf("noop-controlled study served %+v, oracle %+v", got, oracle)
	}

	// The uncontrolled twin is a distinct content address: no dedup in
	// either direction.
	plain, err := cl.Submit("alice", base)
	if err != nil {
		t.Fatalf("submit uncontrolled twin: %v", err)
	}
	if plain.Deduped {
		t.Fatal("uncontrolled spec deduped against its controlled twin")
	}
	pst := pollDone(t, cl, plain.StudyID)
	if pst.ControlLogFP != "" || pst.ControlDecisions != 0 {
		t.Errorf("uncontrolled status carries control fields: %+v", pst)
	}
	if pst.DatasetFP != st.DatasetFP || pst.SketchFP != st.SketchFP {
		t.Errorf("noop-controlled study answered dataset %s sketch %s, its uncontrolled twin %s / %s",
			st.DatasetFP, st.SketchFP, pst.DatasetFP, pst.SketchFP)
	}

	// Re-submitting the identical controlled spec IS answered from cache.
	again, err := cl.Submit("bob", noop)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.StudyID != sub.StudyID {
		t.Fatalf("identical controlled spec not deduped: %+v", again)
	}

	// A mitigating policy flows through the same path; its fingerprint must
	// differ from noop's exactly when it decided anything.
	re := base
	re.Control = "reactive"
	rsub, err := cl.Submit("alice", re)
	if err != nil {
		t.Fatal(err)
	}
	rst := pollDone(t, cl, rsub.StudyID)
	if rst.ControlLogFP == "" {
		t.Error("reactive study status carries no decision-log fingerprint")
	}
	if (rst.ControlLogFP == st.ControlLogFP) != (rst.ControlDecisions == 0) {
		t.Errorf("reactive made %d decisions but its log fingerprint %s vs noop %s",
			rst.ControlDecisions, rst.ControlLogFP, st.ControlLogFP)
	}
}
