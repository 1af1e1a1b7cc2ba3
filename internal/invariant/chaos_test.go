package invariant

import (
	"math"
	"strings"
	"testing"

	"ebslab/internal/chaos"
)

func chaosTestSchedule() (*chaos.Plan, *chaos.Schedule) {
	plan := &chaos.Plan{BSCrashes: 4, Storms: 3, MeanDownSec: 5, MeanStormSec: 5}
	return plan, planExpand(plan)
}

func planExpand(p *chaos.Plan) *chaos.Schedule {
	return p.Expand(11, chaos.Shape{BSs: 6, VDs: 18, DurSec: 40})
}

func TestCheckChaosScheduleCleanPass(t *testing.T) {
	plan, sched := chaosTestSchedule()
	var rep Report
	CheckChaosSchedule(&rep, plan, 11, sched)
	if !rep.OK() {
		t.Fatalf("clean schedule flagged: %v", rep.Err())
	}
}

func TestCheckChaosScheduleFlagsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *chaos.Schedule)
		frag    string
	}{
		{"inverted window", func(s *chaos.Schedule) { s.Crashes[0].End = s.Crashes[0].Start }, "malformed"},
		{"BS out of range", func(s *chaos.Schedule) { s.Crashes[1].BS = s.Shape.BSs }, "outside fleet"},
		{"VD out of range", func(s *chaos.Schedule) { s.Storms[0].VD = -1 }, "outside fleet"},
		{"storm factor zero", func(s *chaos.Schedule) { s.Storms[0].Factor = 0 }, "not positive"},
		{"crash order broken", func(s *chaos.Schedule) {
			s.Crashes[0], s.Crashes[len(s.Crashes)-1] = s.Crashes[len(s.Crashes)-1], s.Crashes[0]
		}, "out of Start order"},
		{"penalty smuggled in", func(s *chaos.Schedule) { s.PenaltyUS = 1 }, "re-expansion diverges"},
		{"window runs past the end", func(s *chaos.Schedule) { s.Crashes[0].End = s.Shape.DurSec + 5 }, "re-expansion diverges"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, sched := chaosTestSchedule()
			tc.corrupt(sched)
			var rep Report
			CheckChaosSchedule(&rep, plan, 11, sched)
			err := rep.Err()
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("corruption missed: err = %v, want mention of %q", err, tc.frag)
			}
		})
	}
}

func TestCheckChaosScheduleNilAndInvalidPlan(t *testing.T) {
	var rep Report
	CheckChaosSchedule(&rep, nil, 1, nil)
	if rep.OK() {
		t.Fatal("nil inputs passed")
	}
	bad := &chaos.Plan{FailoverPenaltyUS: math.NaN()}
	rep = Report{}
	CheckChaosSchedule(&rep, bad, 1, planExpand(&chaos.Plan{BSCrashes: 1}))
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "plan invalid") {
		t.Fatalf("invalid plan missed: %v", err)
	}
}

func TestCheckChaosNeutrality(t *testing.T) {
	neutral := planExpand(&chaos.Plan{BSCrashes: 3, MeanDownSec: 4})
	if !neutral.DatasetNeutral() {
		t.Fatal("fixture schedule is not neutral")
	}
	var rep Report
	CheckChaosNeutrality(&rep, neutral, "fp-a", "fp-a")
	if !rep.OK() {
		t.Fatalf("matching fingerprints flagged: %v", rep.Err())
	}
	rep = Report{}
	CheckChaosNeutrality(&rep, neutral, "fp-a", "fp-b")
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "perturbed") {
		t.Fatalf("neutrality breach missed: %v", err)
	}
	// A disruptive schedule asserts nothing: fingerprints may differ freely.
	disruptive := planExpand(&chaos.Plan{BSCrashes: 2, Storms: 2})
	if disruptive.DatasetNeutral() {
		t.Fatal("storm schedule claimed neutrality")
	}
	rep = Report{}
	CheckChaosNeutrality(&rep, disruptive, "fp-a", "fp-b")
	if !rep.OK() {
		t.Fatalf("disruptive schedule flagged by the neutrality law: %v", rep.Err())
	}
	rep = Report{}
	CheckChaosNeutrality(&rep, nil, "x", "x")
	if rep.OK() {
		t.Fatal("nil schedule passed")
	}
}
