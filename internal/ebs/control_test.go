package ebs

import (
	"context"
	"math/rand"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/trace"
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
		Chaos: &chaos.Plan{BSCrashes: 2, MeanDownSec: 5, Storms: 4, StormFactor: 8, MeanStormSec: 6},
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

// TestPlansAreCausal holds every policy to "the controller only sees the
// past": at each cut e, traffic added after epoch e (4,000 IOs of 1–9 MiB)
// and fault state changed after epoch e+1 must leave every decision for
// epochs <= e+1 bit-identical. The decision for e+1 is made at the end of e,
// and the fault state of the epoch being planned is the one deliberate
// look-ahead (Input.Down). The oracle, which reads its target epoch's
// traffic, is the positive control: it must differ at every cut whose next
// epoch carries one of its decisions. Each plan gets a fresh policy, since
// Predictive carries fit state.
func TestPlansAreCausal(t *testing.T) {
	const epochSec = 2
	sim := New(smallFleet(t))
	top := sim.fleet.Topology
	opts := Options{
		DurationSec: 24, EventSampleEvery: 2, Workers: 2,
		Chaos: &chaos.Plan{BSCrashes: 2, MeanDownSec: 5, Storms: 3, StormFactor: 8, MeanStormSec: 6},
	}
	ctx := context.Background()
	observed, err := sim.Observe(ctx, opts, epochSec)
	if err != nil {
		t.Fatal(err)
	}
	defer observed.Release()
	obs := observed.Observation
	in, err := sim.ControlInput(opts, obs)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(name string, in control.Input) *control.Plan {
		pol, err := control.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := control.BuildPlan(pol, control.Config{EpochSec: epochSec}, in)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// upTo fingerprints the decisions for epochs <= ep.
	upTo := func(p *control.Plan, ep int) string {
		var kept control.Plan
		for _, d := range p.Decisions {
			if d.Epoch <= ep {
				kept.Decisions = append(kept.Decisions, d)
			}
		}
		return kept.LogFingerprint()
	}

	names := []string{"noop", "reactive", "predictive-holt", "predictive-arima", "predictive-gbt", "oracle"}
	base := map[string]*control.Plan{}
	for _, name := range names {
		base[name] = plan(name, in)
	}
	epochs := obs.Shape.Epochs()
	oracleCuts := 0
	for e := 0; e+1 < epochs; e++ {
		o, err := sim.Observe(ctx, opts, epochSec)
		if err != nil {
			t.Fatal(err)
		}
		o.Release()
		future := o.Observation
		rng := rand.New(rand.NewSource(int64(e) + 1))
		for range 4000 {
			vd := cluster.VDID(rng.Intn(len(top.VDs)))
			qps := top.VDs[vd].QPs
			off := rng.Int63n(top.VDs[vd].Capacity)
			startUS := int64(e+1) * epochSec * 1_000_000
			at := startUS + rng.Int63n(int64(opts.DurationSec)*1_000_000-startUS)
			op := trace.OpRead
			if rng.Intn(2) == 1 {
				op = trace.OpWrite
			}
			future.Add(at, op, int32(1+rng.Intn(9))<<20, vd, qps[rng.Intn(len(qps))], top.SegmentOfOffset(vd, off))
		}
		poisoned := in
		poisoned.Obs = future
		poisoned.Down = func(ep, bs int) bool {
			if ep > e+1 {
				return bs%2 == 0
			}
			return in.Down(ep, bs)
		}
		for _, name := range names {
			got, want := upTo(plan(name, poisoned), e+1), upTo(base[name], e+1)
			decides := upTo(base[name], e+1) != upTo(base[name], e)
			switch {
			case name != "oracle" && got != want:
				t.Errorf("%s: decisions for epochs <= %d changed with the future after epoch %d", name, e+1, e)
			case name == "oracle" && decides && got == want:
				t.Errorf("oracle: decisions for epoch %d unchanged by that epoch's traffic: the law cannot see a look-ahead", e+1)
			case name == "oracle" && decides:
				oracleCuts++
			}
		}
	}
	if oracleCuts == 0 {
		t.Fatal("the oracle decided nothing at any cut: the positive control is vacuous")
	}
	t.Logf("%d cuts; the oracle's look-ahead caught at %d", epochs-1, oracleCuts)
}
