package ebs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"ebslab/internal/chaos"
	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/scenario"
	"ebslab/internal/sketch"
	"ebslab/internal/workload"
)

func testRunSpec() RunSpec {
	return RunSpec{
		Fleet: workload.SingleDC(5, 2, 4, 8),
		Opts:  Options{DurationSec: 8, TraceSampleEvery: 1, EventSampleEvery: 4, MaxVDs: 8, Workers: 2},
	}
}

// TestRunSpecRules walks the compatibility table: what Validate refuses
// before a fleet exists, and what Distributable keeps in one process.
func TestRunSpecRules(t *testing.T) {
	bound, err := scenario.BindSpec("bufferbloat", smallFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		edit        func(*RunSpec)
		valid, dist bool
	}{
		{"plain", func(*RunSpec) {}, true, true},
		{"scenario", func(r *RunSpec) { r.Scenario = "elastic,step=4" }, true, true},
		{"control", func(r *RunSpec) { r.Control, r.EpochSec = "reactive", 2 }, true, false},
		{"timeline in Opts", func(r *RunSpec) { r.Opts.Control = control.NewTimeline(2, 8) }, true, false},
		{"replay", func(r *RunSpec) { r.Scenario = "replay,path=trace.csv" }, true, false},
		{"negative option", func(r *RunSpec) { r.Opts.MaxVDs = -1 }, false, true},
		{"unknown scenario", func(r *RunSpec) { r.Scenario = "quakestorm" }, false, true},
		{"bad scenario param", func(r *RunSpec) { r.Scenario = "elastic,bogus=1" }, false, true},
		{"bound scenario in Opts", func(r *RunSpec) { r.Opts.Scenario = bound }, false, true},
		{"unknown policy", func(r *RunSpec) { r.Control = "psychic" }, false, false},
		{"epoch without policy", func(r *RunSpec) { r.EpochSec = 2 }, false, true},
		{"negative epoch", func(r *RunSpec) { r.Control, r.EpochSec = "noop", -1 }, false, false},
		{"epoch one short of the window", func(r *RunSpec) { r.Control, r.EpochSec = "noop", 7 }, true, false},
		{"epoch as long as the window", func(r *RunSpec) { r.Control, r.EpochSec = "reactive", 8 }, false, false},
		{"epoch past the fleet's window", func(r *RunSpec) { r.Control, r.EpochSec, r.Opts.DurationSec = "reactive", 100, 0 }, false, false},
		{"default epoch, one-second window", func(r *RunSpec) { r.Control, r.Opts.DurationSec = "reactive", 1 }, true, false},
		{"the default spelled out, one-second window", func(r *RunSpec) { r.Control, r.EpochSec, r.Opts.DurationSec = "reactive", 1, 1 }, true, false},
	} {
		spec := testRunSpec()
		tc.edit(&spec)
		if err := spec.Validate(); (err == nil) != tc.valid {
			t.Errorf("%s: Validate = %v, want valid=%v", tc.name, err, tc.valid)
		}
		if err := spec.Distributable(); (err == nil) != tc.dist {
			t.Errorf("%s: Distributable = %v, want distributable=%v", tc.name, err, tc.dist)
		}
		if !tc.valid {
			if _, _, err := spec.Open(); err == nil {
				t.Errorf("%s: Open accepted a spec Validate refuses", tc.name)
			}
		}
	}
}

// TestRunSpecRunIsGenerateBindRun holds Run to the steps it replaced, spelled
// out: generate the fleet, build the simulator, bind the scenario, run —
// plainly and under a policy.
func TestRunSpecRunIsGenerateBindRun(t *testing.T) {
	for _, policy := range []string{"", "reactive"} {
		spec := testRunSpec()
		spec.Scenario, spec.Control = "bufferbloat,period=4", policy
		if policy != "" {
			spec.EpochSec = 2
		}

		fleet, err := workload.Generate(spec.Fleet)
		if err != nil {
			t.Fatal(err)
		}
		opts := spec.Opts
		if opts.Scenario, err = scenario.BindSpec(spec.Scenario, fleet); err != nil {
			t.Fatal(err)
		}
		want, wantLog := "", ""
		if policy == "" {
			ds, err := New(fleet).Run(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			want = invariant.Fingerprint(ds)
		} else {
			pol, err := control.ByName(policy)
			if err != nil {
				t.Fatal(err)
			}
			ds, plan, err := New(fleet).RunControlled(context.Background(), opts, pol, control.Config{EpochSec: 2})
			if err != nil {
				t.Fatal(err)
			}
			want, wantLog = invariant.Fingerprint(ds), plan.LogFingerprint()
		}

		ds, plan, err := spec.Run(context.Background())
		if err != nil {
			t.Fatalf("policy %q: %v", policy, err)
		}
		if got := invariant.Fingerprint(ds); got != want {
			t.Errorf("policy %q: Run fingerprint %s, spelled-out path %s", policy, got, want)
		}
		if (plan != nil) != (policy != "") || (plan != nil && plan.LogFingerprint() != wantLog) {
			t.Errorf("policy %q: Run's plan does not match the spelled-out path's", policy)
		}
	}
}

// TestRunSpecCrossesTheWire: the spec marshals with every in-process field set
// (a func or a live set would fail or leak), and what arrives is the same spec
// minus exactly those fields — the value a fabric worker opens.
func TestRunSpecCrossesTheWire(t *testing.T) {
	plain := testRunSpec()
	plain.Scenario = "bufferbloat"
	plain.Opts.Seed, plain.Opts.Check, plain.Opts.DisableThrottle = 9, true, true
	plain.Opts.Chaos = &chaos.Plan{BSCrashes: 1, MeanDownSec: 2, Storms: 1, StormFactor: 4}

	sent := plain
	sent.Opts.Stream = sketch.NewSet(sketch.Config{})
	sent.Opts.Snapshots = &SnapshotSink{}
	sent.Opts.ChaosStats = &chaos.Stats{}
	sent.Opts.Control = control.NewTimeline(2, 8)
	sent.Opts.Progress = func(int, int) {}
	raw, err := json.Marshal(sent)
	if err != nil {
		t.Fatal(err)
	}
	var got RunSpec
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Errorf("arrived %+v\nwant    %+v", got, plain)
	}
}

// TestRunSpecOpenTakesReplayThinning: a replay that kept one record in k at
// ingest runs with EventSampleEvery k whatever the spec's options said, so
// metric rows re-inflate to full-trace estimates — for every caller, not just
// the CLI that used to patch it in.
func TestRunSpecOpenTakesReplayThinning(t *testing.T) {
	spec := testRunSpec()
	spec.Scenario = "replay,path=../scenario/testdata/tianchi_sample.csv,sample=2"
	_, opts, err := spec.Open()
	if err != nil {
		t.Fatal(err)
	}
	if opts.EventSampleEvery != 2 {
		t.Errorf("opened EventSampleEvery %d, want the replay's 2", opts.EventSampleEvery)
	}
	if spec.Opts.EventSampleEvery != 4 {
		t.Errorf("Open rewrote the spec's own options: EventSampleEvery %d", spec.Opts.EventSampleEvery)
	}
}

// TestReplayFarFutureRowKeepsHeapFlat: a replay row whose second lies far past
// every run window costs what a row inside the window does. The demand series
// is folded up to the window a run asks for, so the 2-row trace below no
// longer builds a 20,000,001-second series for its disk (1.26 GiB).
func TestReplayFarFutureRowKeepsHeapFlat(t *testing.T) {
	allocated := func(trace string) uint64 {
		path := filepath.Join(t.TempDir(), "trace.csv")
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		spec := testRunSpec()
		spec.Opts.MaxVDs = 0 // every disk, the far row's included
		spec.Scenario = "replay,path=" + path + ",schema=tianchi"
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := spec.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	near := allocated("1,R,0,4096,0\n1,R,0,4096,2000000\n")
	far := allocated("1,R,0,4096,0\n1,R,0,4096,20000000000000\n")
	t.Logf("allocated %.1f MiB with the second row at 2 s, %.1f MiB at 2*10^7 s", float64(near)/(1<<20), float64(far)/(1<<20))
	if far > near+4<<20 {
		t.Errorf("the far-future row allocated %d MiB, the near one %d MiB: want within 4 MiB", far>>20, near>>20)
	}
}
