package ebs

import (
	"context"
	"testing"
	"time"

	"ebslab/internal/control"
	"ebslab/internal/invariant"
	"ebslab/internal/sketch"
	"ebslab/internal/workload"
)

// TestClocksReadEveryStage: a traced, throttled, checked run with
// Options.Clocks set produces the same dataset and sketch bytes as the run
// without, and every stage it ran reads > 0 — sketch only when streaming.
func TestClocksReadEveryStage(t *testing.T) {
	sim := New(smallFleet(t))
	for _, stream := range []bool{false, true} {
		base := Options{DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 4, MaxVDs: 12, Workers: 2, Check: true}
		plain, timed := base, base
		if stream {
			plain.Stream, timed.Stream = sketch.NewSet(sketch.Config{}), sketch.NewSet(sketch.Config{})
		}
		var c Clocks
		timed.Clocks = &c
		want, err := sim.Run(context.Background(), plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(context.Background(), timed)
		if err != nil {
			t.Fatal(err)
		}
		if invariant.Fingerprint(got) != invariant.Fingerprint(want) {
			t.Fatalf("stream %v: the clocked run's dataset differs from the unclocked one's", stream)
		}
		if stream && timed.Stream.Fingerprint() != plain.Stream.Fingerprint() {
			t.Fatal("the clocked run's sketch state differs from the unclocked one's")
		}
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"generate", c.Generate}, {"throttle", c.Throttle}, {"latency", c.Latency},
			{"emit", c.Emit}, {"finish", c.Finish}, {"check", c.Check},
		} {
			if st.d <= 0 {
				t.Errorf("stream %v: %s clock reads %v, want > 0", stream, st.name, st.d)
			}
		}
		if (c.Sketch > 0) != stream {
			t.Errorf("stream %v: sketch clock reads %v", stream, c.Sketch)
		}
		if c.Observe != 0 || c.Plan != 0 {
			t.Errorf("stream %v: a plain run's observe and plan clocks read %v and %v, want zero", stream, c.Observe, c.Plan)
		}
	}
}

// TestClocksReadControlledPasses: a controlled run's clocks also read the
// observe pass and the planning ahead of the actuated pass, and the clocked
// run's dataset and decision log are the unclocked run's.
func TestClocksReadControlledPasses(t *testing.T) {
	sim := New(smallFleet(t))
	pol, err := control.ByName("reactive")
	if err != nil {
		t.Fatal(err)
	}
	plain := Options{DurationSec: 10, TraceSampleEvery: 1, EventSampleEvery: 4, MaxVDs: 12, Workers: 2, Check: true}
	timed := plain
	var c Clocks
	timed.Clocks = &c
	want, wantPlan, err := sim.RunControlled(context.Background(), plain, pol, control.Config{EpochSec: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, gotPlan, err := sim.RunControlled(context.Background(), timed, pol, control.Config{EpochSec: 2})
	if err != nil {
		t.Fatal(err)
	}
	if invariant.Fingerprint(got) != invariant.Fingerprint(want) || gotPlan.LogFingerprint() != wantPlan.LogFingerprint() {
		t.Fatal("the clocked controlled run differs from the unclocked one")
	}
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"observe", c.Observe}, {"plan", c.Plan}, {"generate", c.Generate}, {"finish", c.Finish}, {"check", c.Check},
	} {
		if st.d <= 0 {
			t.Errorf("%s clock reads %v, want > 0", st.name, st.d)
		}
	}
}

// TestClocksReadBind: with Opts.Clocks set, RunSpec.Open times the scenario
// binding — for a replay, the ingest — into Clocks.Bind, and the run after it
// leaves that reading as it found it. Without a scenario Bind reads zero.
func TestClocksReadBind(t *testing.T) {
	for _, sc := range []string{"", "replay,path=../scenario/testdata/tianchi_sample.csv"} {
		spec := testRunSpec()
		spec.Scenario = sc
		var c Clocks
		spec.Opts.Clocks = &c
		if _, _, err := spec.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if (c.Bind > 0) != (sc != "") {
			t.Errorf("scenario %q: bind clock reads %v", sc, c.Bind)
		}
		if c.Generate <= 0 {
			t.Errorf("scenario %q: generate clock reads %v, want > 0", sc, c.Generate)
		}
	}
}

// BenchmarkRunClocks times a checked Run on the bench's study shape (see
// BenchmarkVerifyRun) with the clocks off and on: what reading them costs.
func BenchmarkRunClocks(b *testing.B) {
	f, err := workload.Generate(workload.SingleDC(7, 16, 16, 60))
	if err != nil {
		b.Fatal(err)
	}
	sim := New(f)
	for _, on := range []bool{false, true} {
		name := "off"
		opts := Options{DurationSec: 60, TraceSampleEvery: 1, EventSampleEvery: 8, MaxVDs: 120, Workers: 2, Check: true}
		if on {
			name, opts.Clocks = "on", new(Clocks)
		}
		b.Run(name, func(b *testing.B) {
			for range b.N {
				if _, err := sim.Run(context.Background(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
