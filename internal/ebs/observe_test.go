package ebs

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ebslab/internal/chaos"
	"ebslab/internal/cluster"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
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
							got.Release()
							if got.Observation.Fingerprint() != want.Fingerprint() {
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
		o, err := sim.Observe(context.Background(), Options{DurationSec: dur, MaxVDs: 4}, 0)
		if err != nil {
			t.Errorf("default epoch on a %ds window: %v", dur, err)
			continue
		}
		o.Release()
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
// TestRunSteadyStateAllocs: with the RNG and arena pools warm (each pass is
// released, as RunControlled releases its own) it allocates the observation,
// the per-worker state and a fixed per-pass overhead — nothing per disk,
// nothing per IO.
func TestObserveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pool reuse is randomized under the race detector")
	}
	sim := New(smallFleet(t))
	pass := func(maxVDs int) func() {
		opts := Options{DurationSec: 8, EventSampleEvery: 8, MaxVDs: maxVDs, Workers: 1}
		return func() {
			o, err := sim.Observe(context.Background(), opts, 2)
			if err != nil {
				t.Fatalf("Observe: %v", err)
			}
			o.Release()
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

// TestControlledGeneratesEachDiskOnce counts generator calls: RunControlled
// draws every disk's events once (the observe pass keeps them for the
// actuated pass), and a bake-off of P policies over one observe pass once
// too — not P+1 times.
func TestControlledGeneratesEachDiskOnce(t *testing.T) {
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
	if got := calls.Load(); got != vds {
		t.Errorf("RunControlled generated %d disk streams over %d disks, want %d", got, vds, vds)
	}

	calls.Store(0)
	policies := []string{"noop", "reactive", "predictive", "oracle"}
	obs, err := sim.Observe(context.Background(), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Release()
	for _, name := range policies {
		pol, err := control.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sim.RunObserved(context.Background(), opts, pol, obs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if got := calls.Load(); got != vds {
		t.Errorf("a %d-policy bake-off generated %d disk streams over %d disks, want %d", len(policies), got, vds, vds)
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
	defer obs.Release()
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

// TestRunObservedRefusesOtherTraffic: an observe pass's kept events are
// replayed as the run's traffic, so RunObserved refuses a pass taken under
// options that shape offered traffic differently — one row per such option —
// or by another simulator, or already released; options that do not shape it
// (sinks, Workers, tracing, the throttle switch, Check) stay free.
func TestRunObservedRefusesOtherTraffic(t *testing.T) {
	f := smallFleet(t)
	sim := New(f)
	storms := &chaos.Plan{BSCrashes: 1, MeanDownSec: 2, Storms: 2, StormFactor: 8, MeanStormSec: 2}
	bufferbloat, err := scenario.BindSpec("bufferbloat", f)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Seed: 3, DurationSec: 8, TraceSampleEvery: 4, EventSampleEvery: 2, MaxVDs: 8, Workers: 2, Chaos: storms}
	obs, err := sim.Observe(context.Background(), base, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Release()
	pol, err := control.ByName("reactive")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Options)
		want string // "" = accepted
	}{
		{"window", func(o *Options) { o.DurationSec = 10 }, "observation window 8s, run has 10s"},
		{"EventSampleEvery", func(o *Options) { o.EventSampleEvery = 4 }, "Options.EventSampleEvery 2, run has 4"},
		{"MaxVDs", func(o *Options) { o.MaxVDs = 6 }, "Options.MaxVDs 8, run has 6"},
		{"Seed", func(o *Options) { o.Seed = 4 }, "Options.Seed 3, run has 4"},
		{"no chaos plan", func(o *Options) { o.Chaos = nil }, "Options.Chaos"},
		{"another chaos plan", func(o *Options) { p := *storms; p.Storms = 3; o.Chaos = &p }, "Options.Chaos"},
		{"scenario", func(o *Options) { o.Scenario = bufferbloat }, "Options.Scenario native, run has bufferbloat"},
		{"an equal chaos plan", func(o *Options) { p := *storms; o.Chaos = &p }, ""},
		{"sinks, workers, tracing, throttle and check", func(o *Options) {
			o.Stream, o.Clocks, o.ChaosStats = sketch.NewSet(sketch.Config{}), new(Clocks), new(chaos.Stats)
			o.Workers, o.TraceSampleEvery, o.DisableThrottle, o.Check = 1, 1, true, true
		}, ""},
	} {
		opts := base
		tc.edit(&opts)
		_, _, err := sim.RunObserved(context.Background(), opts, pol, obs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	if _, _, err := New(f).RunObserved(context.Background(), base, pol, obs); err == nil || !strings.Contains(err.Error(), "another simulator") {
		t.Errorf("another simulator's pass: got %v", err)
	}
	released, err := sim.Observe(context.Background(), base, 2)
	if err != nil {
		t.Fatal(err)
	}
	released.Release()
	if _, _, err := sim.RunObserved(context.Background(), base, pol, released); err == nil || !strings.Contains(err.Error(), "released") {
		t.Errorf("a released pass: got %v", err)
	}
}

// TestRunObservedSharesKeptTraffic runs two policies over one observe pass at
// once: the kept traffic is only read, so each answers as it does alone (and
// under the race detector, nothing writes it).
func TestRunObservedSharesKeptTraffic(t *testing.T) {
	sim := New(smallFleet(t))
	opts := Options{DurationSec: 8, TraceSampleEvery: 4, EventSampleEvery: 2, MaxVDs: 12, Workers: 2, Check: true}
	obs, err := sim.Observe(context.Background(), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Release()
	policies := []string{"reactive", "oracle"}
	run := func(name string) (string, error) {
		pol, err := control.ByName(name)
		if err != nil {
			return "", err
		}
		ds, plan, err := sim.RunObserved(context.Background(), opts, pol, obs)
		if err != nil {
			return "", err
		}
		return invariant.Fingerprint(ds) + plan.LogFingerprint(), nil
	}
	want := make([]string, len(policies))
	for i, name := range policies {
		if want[i], err = run(name); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, len(policies))
	errs := make([]error, len(policies))
	var wg sync.WaitGroup
	for i, name := range policies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(name)
		}()
	}
	wg.Wait()
	for i, name := range policies {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("%s beside another policy over the same pass answered differently than alone", name)
		}
	}
}

// TestCheckModeHoldsActuatedPassToObservation is the control/observation law
// caught in the act: one kept event of one disk dropped between the observe
// pass and the actuated pass makes the actuated pass's metric rows differ
// from the observation the plan was built from, and a checked run must fail
// on it (an unchecked one cannot know).
func TestCheckModeHoldsActuatedPassToObservation(t *testing.T) {
	sim := New(smallFleet(t))
	pol, err := control.ByName("reactive")
	if err != nil {
		t.Fatal(err)
	}
	for _, check := range []bool{true, false} {
		opts := Options{DurationSec: 8, TraceSampleEvery: 4, EventSampleEvery: 2, MaxVDs: 12, Workers: 2, Check: check}
		obs, err := sim.Observe(context.Background(), opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		vd := 0
		for len(obs.events[vd]) == 0 {
			vd++
		}
		obs.events[vd] = obs.events[vd][1:]
		_, _, err = sim.RunObserved(context.Background(), opts, pol, obs)
		obs.Release()
		switch {
		case check && (err == nil || !strings.Contains(err.Error(), "control/observation")):
			t.Errorf("checked run over drifting traffic: got %v, want a control/observation finding", err)
		case !check && err != nil:
			t.Errorf("unchecked run: %v", err)
		}
	}
}

// TestEventArenaKeepsEveryDisk: disks of every size — empty, a few events,
// one that fills a chunk mid-way, one several chunks long — come back from
// the arena intact after the disks behind them were pushed, and again after
// a reset reuses the chunks.
func TestEventArenaKeepsEveryDisk(t *testing.T) {
	sizes := []int{0, 3, arenaChunk - 2, 5, 0, 3*arenaChunk + 7, arenaChunk, 1}
	a := new(eventArena)
	for pass := 0; pass < 2; pass++ {
		kept := make([][]workload.Event, len(sizes))
		next := int64(0)
		for d, n := range sizes {
			for range n {
				a.push(workload.Event{TimeUS: next})
				next++
			}
			kept[d] = a.seal()
		}
		next = 0
		for d, n := range sizes {
			if len(kept[d]) != n || cap(kept[d]) != n {
				t.Fatalf("pass %d disk %d: kept %d events (cap %d), pushed %d", pass, d, len(kept[d]), cap(kept[d]), n)
			}
			for i, ev := range kept[d] {
				if ev.TimeUS != next {
					t.Fatalf("pass %d disk %d event %d: TimeUS %d, want %d", pass, d, i, ev.TimeUS, next)
				}
				next++
			}
		}
		a.reset()
	}
}
