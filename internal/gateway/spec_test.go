package gateway

import (
	"flag"
	"io"
	"testing"
)

// TestBindFlags round-trips the study flag set: every dimension parses into
// its field, and a flag left unset keeps the receiver's value, so each
// program's own defaults survive binding.
func TestBindFlags(t *testing.T) {
	parse := func(t *testing.T, s StudySpec, args ...string) StudySpec {
		t.Helper()
		fs := flag.NewFlagSet("study", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s.BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("every flag", func(t *testing.T) {
		got := parse(t, StudySpec{Seed: 1, DurationSec: 60, Nodes: 16, Users: 16, MaxVDs: 120},
			"-seed", "7", "-dur", "24", "-nodes", "4", "-users", "9", "-max-vds", "24",
			"-shards", "5", "-leader-kill", "1", "-control", "predictive",
			"-epoch-sec", "3", "-scenario", "elastic,step=3")
		want := StudySpec{
			Seed: 7, DurationSec: 24, Nodes: 4, Users: 9, MaxVDs: 24,
			Shards: 5, LeaderKills: 1, Control: "predictive",
			ControlEpochSec: 3, Scenario: "elastic,step=3",
		}
		if got != want {
			t.Fatalf("parsed %+v\nwant   %+v", got, want)
		}
	})

	t.Run("unset flags keep the receiver", func(t *testing.T) {
		base := StudySpec{
			Seed: 3, DurationSec: 16, Nodes: 2, Users: 4, MaxVDs: 12,
			EventSampleEvery: 4, TraceSampleEvery: 2, Shards: 3, LeaderKills: 1,
			Control: "reactive", ControlEpochSec: 2, Scenario: "bufferbloat",
		}
		if got := parse(t, base); got != base {
			t.Fatalf("no flags: %+v, want the receiver %+v", got, base)
		}
		want := base
		want.Nodes = 8
		if got := parse(t, base, "-nodes", "8"); got != want {
			t.Fatalf("-nodes 8: %+v, want %+v", got, want)
		}
	})
}
