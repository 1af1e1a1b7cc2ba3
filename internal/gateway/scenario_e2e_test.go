package gateway_test

import (
	"context"
	"testing"

	"ebslab/internal/gateway"
	"ebslab/internal/gateway/gatewaytest"
)

// TestE2EOracleRunsTheServedSpec holds the oracle to the whole spec: a study
// shaped by a scenario, steered by a control policy, or both, served by a live
// gateway, must answer exactly what RunOracle computes for that same spec —
// dataset, sketch and decision log. An oracle that forgot either field would
// report a divergence here that no execution path has (ebsgate -selftest did).
func TestE2EOracleRunsTheServedSpec(t *testing.T) {
	base := gateway.StudySpec{Seed: 7, DurationSec: 8, Nodes: 2, Users: 4, MaxVDs: 12}
	for _, tc := range []struct {
		name, scenario, control string
	}{
		{"scenario", "bufferbloat", ""},
		{"control", "", "reactive"},
		{"scenario and control", "bufferbloat", "reactive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			spec.Scenario, spec.Control = tc.scenario, tc.control
			want, err := gatewaytest.RunOracle(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if (want.ControlLogFP != "") != (tc.control != "") {
				t.Fatalf("oracle decision-log fingerprint %q for control policy %q", want.ControlLogFP, tc.control)
			}
			h := gatewaytest.Start(gateway.Config{MaxConcurrent: 1})
			defer h.Close()
			cl, err := h.Client()
			if err != nil {
				t.Fatal(err)
			}
			sub, err := cl.Submit("alice", spec)
			if err != nil {
				t.Fatal(err)
			}
			st := pollDone(t, cl, sub.StudyID)
			got := gatewaytest.Oracle{DatasetFP: st.DatasetFP, SketchFP: st.SketchFP, ControlLogFP: st.ControlLogFP}
			if got != want {
				t.Errorf("served %+v\noracle %+v", got, want)
			}
		})
	}
}

// TestE2EScenarioStudy pushes a scenario study through a live gateway and
// requires the served answer to be byte-identical to a direct run of the
// same bound scenario. (The fabric's own scenario test holds a distributed
// run of this spec to the same oracle.)
func TestE2EScenarioStudy(t *testing.T) {
	spec := gateway.StudySpec{
		Seed: 4242, DurationSec: 2, Nodes: 2, Users: 4, MaxVDs: 6,
		EventSampleEvery: 4, Scenario: "bufferbloat,period=8,duty=0.5",
	}
	oracle, err := gatewaytest.RunOracle(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wantDS, wantSK := oracle.DatasetFP, oracle.SketchFP

	t.Run("local", func(t *testing.T) {
		h := gatewaytest.Start(gateway.Config{MaxConcurrent: 1})
		defer h.Close()
		cl, err := h.Client()
		if err != nil {
			t.Fatal(err)
		}
		sub, err := cl.Submit("alice", spec)
		if err != nil {
			t.Fatalf("submit scenario study: %v", err)
		}
		st := pollDone(t, cl, sub.StudyID)
		if st.DatasetFP != wantDS {
			t.Errorf("served dataset fingerprint %s, direct-run oracle %s", st.DatasetFP, wantDS)
		}
		if st.SketchFP != wantSK {
			t.Errorf("served sketch fingerprint %s, direct-run oracle %s", st.SketchFP, wantSK)
		}

		// The scenario-less twin is a distinct content address.
		plain := spec
		plain.Scenario = ""
		psub, err := cl.Submit("alice", plain)
		if err != nil {
			t.Fatal(err)
		}
		if psub.Deduped {
			t.Fatal("scenario-less spec deduped against its scenario twin")
		}
		pst := pollDone(t, cl, psub.StudyID)
		if pst.DatasetFP == wantDS {
			t.Error("scenario-less study answered the scenario dataset")
		}
	})
}
