package ebs

import (
	"context"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/control"
)

// TestObservationIsTimelineInvariant is the open-loop/closed-loop
// differential: every counter the controller reads is a function of the
// generated event stream alone — a timeline moves attribution, latency and
// queue delay, never an event — so observing the ACTUATED run yields exactly
// the observation the plan was built from. Planning against the observe pass
// (RunControlled) and planning epoch by epoch inside the actuated run would
// therefore decide identically in this engine.
func TestObservationIsTimelineInvariant(t *testing.T) {
	sim := New(smallFleet(t))
	opts := Options{
		DurationSec: 20, TraceSampleEvery: 8, EventSampleEvery: 2, Workers: 2,
		Chaos: &chaos.Plan{BSCrashes: 2, MeanDownSec: 5, Storms: 4, StormFactor: 8, MeanStormSec: 6, Recoverable: true},
	}
	shape, err := sim.ObsShapeFor(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	bare := opts
	bare.Observe = control.NewObservation(shape)
	if _, err := sim.Run(context.Background(), bare); err != nil {
		t.Fatal(err)
	}
	want := bare.Observe.Fingerprint()

	kinds := map[control.DecisionKind]int{}
	for _, name := range []string{"reactive", "predictive", "oracle"} {
		pol, err := control.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := sim.ControlInput(opts, bare.Observe)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := control.BuildPlan(pol, control.Config{EpochSec: 2}, in)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Timeline.Empty() {
			t.Fatalf("%s planned nothing: the differential would be vacuous", name)
		}
		for _, d := range plan.Decisions {
			kinds[d.Kind]++
		}
		act := opts
		act.Control = plan.Timeline
		act.Observe = control.NewObservation(shape)
		if _, err := sim.Run(context.Background(), act); err != nil {
			t.Fatal(err)
		}
		if got := act.Observe.Fingerprint(); got != want {
			t.Errorf("%s (%d decisions): actuated observation %s, observe pass %s", name, len(plan.Decisions), got, want)
		}
	}
	// Each actuator must have fired somewhere, rebinds above all: they move
	// IOs between worker threads, the one attribution a compute row carries.
	for _, k := range []control.DecisionKind{control.DecMigrate, control.DecEvacuate, control.DecLend, control.DecRebind} {
		if kinds[k] == 0 {
			t.Errorf("no %s decision in any plan: pick a fleet or fault plan that exercises it", k)
		}
	}
	t.Logf("decisions by kind: %v", kinds)
}
