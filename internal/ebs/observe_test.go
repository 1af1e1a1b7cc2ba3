package ebs

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/scenario"
	"ebslab/internal/trace"
	"ebslab/internal/workload"
)

// nativeWorkload offers the fleet's own traffic through the scenario seam, so
// the wrappers below can sit in front of it.
type nativeWorkload struct{ f *workload.Fleet }

func (n nativeWorkload) Name() string           { return "native" }
func (n nativeWorkload) Spec() string           { return "native" }
func (n nativeWorkload) Fleet() *workload.Fleet { return n.f }
func (n nativeWorkload) SeriesInto(buf []workload.Sample, vd cluster.VDID, durSec int) []workload.Sample {
	return n.f.VDSeriesInto(buf, vd, durSec)
}
func (n nativeWorkload) GenEvents(vd cluster.VDID, series []workload.Sample, sampleEvery int, boost func(int) float64, emit func(workload.Event)) {
	n.f.GenEventsBoostedOver(vd, series, sampleEvery, boost, emit)
}

// genHook wraps a workload's generator: before runs ahead of the inner
// GenEvents, after behind it with the same arguments.
type genHook struct {
	scenario.Workload
	before func(vd cluster.VDID)
	after  func(vd cluster.VDID, series []workload.Sample, emit func(workload.Event))
}

func (g *genHook) GenEvents(vd cluster.VDID, series []workload.Sample, sampleEvery int, boost func(int) float64, emit func(workload.Event)) {
	if g.before != nil {
		g.before(vd)
	}
	g.Workload.GenEvents(vd, series, sampleEvery, boost, emit)
	if g.after != nil {
		g.after(vd, series, emit)
	}
}

// countGen counts GenEvents calls on w.
func countGen(w scenario.Workload) (*genHook, *atomic.Int64) {
	var calls atomic.Int64
	return &genHook{Workload: w, before: func(cluster.VDID) { calls.Add(1) }}, &calls
}

// recordSourced is a workload claiming verbatim records, as a native-schema
// replay does.
type recordSourced struct{ scenario.Workload }

func (recordSourced) SourcesRecords() bool                { return true }
func (recordSourced) Records(cluster.VDID) []trace.Record { return nil }

// rowFold is the differential's reference: the observation a full run folds
// from its merged DiTing metric rows.
func rowFold(t *testing.T, sim *Sim, opts Options, epochSec int) *control.Observation {
	t.Helper()
	shape, err := sim.ObsShapeFor(opts, epochSec)
	if err != nil {
		t.Fatal(err)
	}
	opts.Observe = control.NewObservation(shape)
	if _, err := sim.Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	return opts.Observe
}

// TestObserveMatchesRowFold holds the generate-only pass to the full run it
// replaced: over traffic sources, fault plans, thinning rates, disk bounds,
// worker counts and the throttle switch, Observe's counters equal the ones a
// run with Options.Observe folds from its metric rows.
func TestObserveMatchesRowFold(t *testing.T) {
	f, err := workload.Generate(workload.SingleDC(5, 4, 8, 8)) // 360 passes: keep MaxVDs 0 small
	if err != nil {
		t.Fatal(err)
	}
	sim := New(f)
	const dur, epoch = 6, 2

	bind := func(spec string) scenario.Workload {
		w, err := scenario.BindSpec(spec, f)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// An IO at the window's final instant falls in second dur, past the last
	// epoch's end: both sides must clamp it into the last epoch.
	var lastInstant atomic.Int64
	final := &genHook{Workload: nativeWorkload{f}, after: func(vd cluster.VDID, series []workload.Sample, emit func(workload.Event)) {
		lastInstant.Add(1)
		emit(workload.Event{TimeUS: int64(len(series)) * 1_000_000, Op: trace.OpWrite, Size: 4096, QP: f.Topology.VDs[vd].QPs[0]})
	}}
	sources := []struct {
		name string
		sc   scenario.Workload
	}{
		{"native", nil},
		{"bufferbloat", bind("bufferbloat,period=4,drain=0.02")},
		{"batchburst", bind("batchburst,wave=3,width=1")},
		{"elastic", bind("elastic,hi=2,step=2")},
		{"foreign replay", bind("replay,path=../scenario/testdata/tianchi_sample.csv")},
		{"final instant", final},
	}
	storms := &chaos.Plan{BSCrashes: 2, MeanDownSec: 2, Storms: 4, StormFactor: 8, MeanStormSec: 3}

	empty := ""
	for _, src := range sources {
		for _, plan := range []*chaos.Plan{nil, storms} {
			for _, thin := range []int{1, 2, 8} {
				for _, maxVDs := range []int{0, 5} {
					for _, noThrottle := range []bool{false, true} {
						opts := Options{
							DurationSec: dur, TraceSampleEvery: 16, EventSampleEvery: thin,
							MaxVDs: maxVDs, Workers: 2, DisableThrottle: noThrottle,
							Chaos: plan, Scenario: src.sc,
						}
						want := rowFold(t, sim, opts, epoch)
						if empty == "" {
							empty = control.NewObservation(want.Shape).Fingerprint()
						}
						if thin == 1 && maxVDs == 0 && want.Fingerprint() == empty { // a 60-record replay thins, or bounds, to nothing
							t.Fatalf("%s: the reference run observed nothing", src.name)
						}
						for _, workers := range []int{1, 2, 4} {
							opts.Workers = workers
							got, err := sim.Observe(context.Background(), opts, epoch)
							if err != nil {
								t.Fatal(err)
							}
							if got.Fingerprint() != want.Fingerprint() {
								t.Errorf("%s chaos=%v thin=%d maxVDs=%d noThrottle=%v workers=%d: Observe diverges from the row fold",
									src.name, plan != nil, thin, maxVDs, noThrottle, workers)
							}
						}
					}
				}
			}
		}
	}
	if lastInstant.Load() == 0 {
		t.Error("no IO was offered at the window's final instant")
	}
}

// TestObserveRejections: Observe validates as a run does, in a run's words.
func TestObserveRejections(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	elsewhere, err := scenario.BindSpec("bufferbloat", smallFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	shape, err := sim.ObsShapeFor(Options{DurationSec: 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		opts  Options
		epoch int
		want  string
	}{
		{"record-sourced replay", Options{DurationSec: 8, Scenario: recordSourced{nativeWorkload{f}}}, 2, "replays verbatim records"},
		{"scenario of another fleet", Options{DurationSec: 8, Scenario: elsewhere}, 2, "observe pass: ebs: Options.Scenario \"bufferbloat\" is bound to a different fleet"},
		{"negative option", Options{DurationSec: 8, MaxVDs: -1}, 2, "Options.MaxVDs is -1, want >= 0"},
		{"timeline set", Options{DurationSec: 8, Control: control.NewTimeline(2, 8)}, 2, "leave both nil"},
		{"destination set", Options{DurationSec: 8, Observe: control.NewObservation(shape)}, 2, "leave both nil"},
		{"epoch as long as the window", Options{DurationSec: 8}, 8, "spans the whole 8s window"},
	} {
		obs, err := sim.Observe(context.Background(), tc.opts, tc.epoch)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
		if obs != nil {
			t.Errorf("%s: a rejected pass returned an observation", tc.name)
		}
	}
	// The default cadence works at every window, a one-second one included.
	for _, dur := range []int{1, 2, 7, 8, 20} {
		if _, err := sim.Observe(context.Background(), Options{DurationSec: dur, MaxVDs: 4}, 0); err != nil {
			t.Errorf("default epoch on a %ds window: %v", dur, err)
		}
	}
}

// TestObserveCancellation: a cancelled context ends the pass with ctx's error
// — before any disk, or between disks — and leaves no goroutine behind.
func TestObserveCancellation(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obs, err := sim.Observe(ctx, Options{DurationSec: 5, MaxVDs: 8, Workers: 4}, 1)
	if !errors.Is(err, context.Canceled) || obs != nil {
		t.Fatalf("pre-cancelled pass: got (%v, %v), want context.Canceled", obs, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var disks atomic.Int64
	sc := &genHook{Workload: nativeWorkload{f}, before: func(cluster.VDID) {
		if disks.Add(1) == 3 {
			cancel()
		}
	}}
	obs, err = sim.Observe(ctx, Options{DurationSec: 5, MaxVDs: 16, Workers: 2, Scenario: sc}, 1)
	if !errors.Is(err, context.Canceled) || obs != nil {
		t.Fatalf("mid-pass cancel: got (%v, %v), want context.Canceled", obs, err)
	}
	if n := disks.Load(); n >= 16 {
		t.Errorf("the pass generated all %d disks after cancellation", n)
	}
	// A worker that has signalled its WaitGroup may still be on its way out.
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("%d goroutines after the cancelled passes, %d before", got, baseline)
	}
}

// TestObserveSteadyStateAllocs pins the pass's allocation budget next to
// TestRunSteadyStateAllocs: with the RNG pool warm it allocates the
// observation, the per-worker state and a fixed per-pass overhead — nothing
// per disk, nothing per IO.
func TestObserveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under the race detector")
	}
	sim := New(smallFleet(t))
	pass := func(maxVDs int) func() {
		opts := Options{DurationSec: 8, EventSampleEvery: 8, MaxVDs: maxVDs, Workers: 1}
		return func() {
			if _, err := sim.Observe(context.Background(), opts, 2); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
	}
	const budget = 20
	a, b := warmAllocs(pass(10)), warmAllocs(pass(40))
	if a > budget || b > budget {
		t.Fatalf("warm Observe allocates %.0f times over 10 disks, %.0f over 40; budget is %d", a, b, budget)
	}
	if b > a+2 {
		t.Fatalf("Observe allocates per disk: %.0f times over 10 disks, %.0f over 40", a, b)
	}
}

// TestControlledGeneratesEachDiskTwice counts generator calls: RunControlled
// draws every disk's events twice (once to observe, once to run), and a
// bake-off of P policies over one observation P+1 times — not 2P.
func TestControlledGeneratesEachDiskTwice(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	sc, calls := countGen(nativeWorkload{f})
	const vds = 12
	opts := Options{DurationSec: 8, TraceSampleEvery: 4, EventSampleEvery: 4, MaxVDs: vds, Workers: 2, Scenario: sc}

	pol, err := control.ByName("reactive")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.RunControlled(context.Background(), opts, pol, control.Config{EpochSec: 2}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2*vds {
		t.Errorf("RunControlled generated %d disk streams over %d disks, want %d", got, vds, 2*vds)
	}

	calls.Store(0)
	policies := []string{"noop", "reactive", "predictive", "oracle"}
	obs, err := sim.Observe(context.Background(), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range policies {
		pol, err := control.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sim.RunObserved(context.Background(), opts, pol, obs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if got, want := calls.Load(), int64((len(policies)+1)*vds); got != want {
		t.Errorf("a %d-policy bake-off generated %d disk streams over %d disks, want %d", len(policies), got, vds, want)
	}
}

// TestRunObservedMatchesRunControlled: the seam RunControlled is built on
// answers as RunControlled does, and refuses an observation of another window.
func TestRunObservedMatchesRunControlled(t *testing.T) {
	sim := New(smallFleet(t))
	opts := Options{
		DurationSec: 12, TraceSampleEvery: 4, EventSampleEvery: 2, MaxVDs: 16, Workers: 2, Check: true,
		Chaos: &chaos.Plan{BSCrashes: 2, MeanDownSec: 4, Storms: 3, StormFactor: 8, MeanStormSec: 4},
	}
	policy := func() control.Policy { // a predictive policy carries fitted state: one per plan
		pol, err := control.ByName("predictive")
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	_, want, err := sim.RunControlled(context.Background(), opts, policy(), control.Config{EpochSec: 2})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := sim.Observe(context.Background(), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := sim.RunObserved(context.Background(), opts, policy(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if got.LogFingerprint() != want.LogFingerprint() || len(got.Decisions) == 0 {
		t.Errorf("RunObserved decided %s (%d decisions), RunControlled %s", got.LogFingerprint(), len(got.Decisions), want.LogFingerprint())
	}
	longer := opts
	longer.DurationSec = 14
	if _, _, err := sim.RunObserved(context.Background(), longer, policy(), obs); err == nil || !strings.Contains(err.Error(), "observation window 12s") {
		t.Errorf("an observation of another window: got %v", err)
	}
}

// TestCheckModeHoldsActuatedPassToObservation is the control/observation law
// caught in the act: a workload that offers one IO fewer the second time a
// disk is generated makes the actuated pass's metric rows differ from the
// observation the plan was built from, and a checked run must fail on it
// (an unchecked one cannot know).
func TestCheckModeHoldsActuatedPassToObservation(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	pol, err := control.ByName("reactive")
	if err != nil {
		t.Fatal(err)
	}
	for _, check := range []bool{true, false} {
		drifting := dropFirstOnRepeat{Workload: nativeWorkload{f}, passes: make([]int, len(f.Topology.VDs))}
		opts := Options{DurationSec: 8, TraceSampleEvery: 4, EventSampleEvery: 2, MaxVDs: 12, Workers: 2, Check: check, Scenario: drifting}
		_, _, err := sim.RunControlled(context.Background(), opts, pol, control.Config{EpochSec: 2})
		switch {
		case check && (err == nil || !strings.Contains(err.Error(), "control/observation")):
			t.Errorf("checked run over drifting traffic: got %v, want a control/observation finding", err)
		case !check && err != nil:
			t.Errorf("unchecked run: %v", err)
		}
	}
}

// dropFirstOnRepeat withholds a disk's first IO from its second generation on.
// A disk is generated by one worker at a time, so passes needs no lock.
type dropFirstOnRepeat struct {
	scenario.Workload
	passes []int
}

func (d dropFirstOnRepeat) GenEvents(vd cluster.VDID, series []workload.Sample, sampleEvery int, boost func(int) float64, emit func(workload.Event)) {
	d.passes[vd]++
	if d.passes[vd] == 1 {
		d.Workload.GenEvents(vd, series, sampleEvery, boost, emit)
		return
	}
	first := true
	d.Workload.GenEvents(vd, series, sampleEvery, boost, func(ev workload.Event) {
		if first {
			first = false
			return
		}
		emit(ev)
	})
}
