package chaos

import (
	"strings"
	"testing"
)

func testShape() Shape { return Shape{BSs: 8, VDs: 24, DurSec: 60} }

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		frag string // expected error substring; "" means valid
	}{
		{"zero plan", Plan{}, ""},
		{"full plan", Plan{BSCrashes: 3, MeanDownSec: 4, FailoverPenaltyUS: 500,
			Storms: 2, StormFactor: 8, MeanStormSec: 6}, ""},
		{"negative crashes", Plan{BSCrashes: -1}, "BSCrashes"},
		{"negative storm mean", Plan{MeanStormSec: -2}, "MeanStormSec"},
		{"negative penalty", Plan{FailoverPenaltyUS: -1}, "FailoverPenaltyUS"},
		{"negative storm factor", Plan{StormFactor: -3}, "StormFactor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if tc.frag == "" {
				if err != nil {
					t.Fatalf("valid plan rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error = %v, want mention of %q", err, tc.frag)
			}
		})
	}
}

func TestExpandIsPureFunctionOfInputs(t *testing.T) {
	p := &Plan{BSCrashes: 5, Storms: 3, FailoverPenaltyUS: 100}
	a := p.Expand(7, testShape())
	b := p.Expand(7, testShape())
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same (plan, seed, shape) expanded to different schedules")
	}
	if c := p.Expand(8, testShape()); c.Fingerprint() == a.Fingerprint() {
		t.Fatal("run seed does not reach the fault streams")
	}
	// A plan with its own seed ignores the run seed.
	pinned := &Plan{Seed: 11, BSCrashes: 5, Storms: 3}
	if pinned.Expand(1, testShape()).Fingerprint() != pinned.Expand(2, testShape()).Fingerprint() {
		t.Fatal("plan seed did not pin the schedule across run seeds")
	}
}

func TestExpandWindowsWellFormed(t *testing.T) {
	p := &Plan{BSCrashes: 16, Storms: 16, MeanDownSec: 10, MeanStormSec: 10}
	s := p.Expand(3, testShape())
	if len(s.Crashes) != 16 || len(s.Storms) != 16 {
		t.Fatalf("expanded %d crashes, %d storms", len(s.Crashes), len(s.Storms))
	}
	for i, c := range s.Crashes {
		if c.BS < 0 || c.BS >= s.Shape.BSs {
			t.Fatalf("crash %d: BS %d out of range", i, c.BS)
		}
		if c.Start < 0 || c.Start >= s.Shape.DurSec || c.End <= c.Start {
			t.Fatalf("crash %d: window [%d, %d) malformed", i, c.Start, c.End)
		}
		if i > 0 && s.Crashes[i-1].Start > c.Start {
			t.Fatalf("crash %d out of Start order", i)
		}
	}
	for i, st := range s.Storms {
		if st.VD < 0 || st.VD >= s.Shape.VDs {
			t.Fatalf("storm %d: VD %d out of range", i, st.VD)
		}
		if st.Factor != 8 {
			t.Fatalf("storm %d: default factor = %v", i, st.Factor)
		}
		if st.Start < 0 || st.Start >= s.Shape.DurSec || st.End <= st.Start {
			t.Fatalf("storm %d: window [%d, %d) malformed", i, st.Start, st.End)
		}
	}
}

// TestCrashStreamIndependentOfStorms pins the per-window derived-RNG
// discipline: adding storms to a plan must not move its crashes.
func TestCrashStreamIndependentOfStorms(t *testing.T) {
	base := &Plan{BSCrashes: 6}
	noisy := &Plan{BSCrashes: 6, Storms: 9}
	a := base.Expand(5, testShape()).Crashes
	b := noisy.Expand(5, testShape()).Crashes
	if len(a) != len(b) {
		t.Fatalf("crash counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("crash %d moved when storms were added: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRecoverableClampsEveryWindow(t *testing.T) {
	// Means of 40s against a 20s window would leak without the clamp.
	p := &Plan{BSCrashes: 32, Storms: 32, MeanDownSec: 40, MeanStormSec: 40}
	s := p.Expand(9, Shape{BSs: 4, VDs: 8, DurSec: 20})
	if len(s.Crashes) == 0 || len(s.Storms) == 0 {
		t.Fatalf("expanded %d crashes and %d storms; the clamp went untested", len(s.Crashes), len(s.Storms))
	}
	for _, c := range s.Crashes {
		if c.End > s.Shape.DurSec {
			t.Fatalf("crash window %+v runs past the %ds run", c, s.Shape.DurSec)
		}
	}
	for _, st := range s.Storms {
		if st.End > s.Shape.DurSec {
			t.Fatalf("storm window %+v runs past the %ds run", st, s.Shape.DurSec)
		}
	}
}

func TestScheduleQueries(t *testing.T) {
	s := &Schedule{
		Shape: Shape{BSs: 4, VDs: 4, DurSec: 30},
		Crashes: []Crash{
			{BS: 1, Window: Window{Start: 5, End: 10}},
			{BS: 2, Window: Window{Start: 8, End: 12}},
		},
		Storms: []Storm{
			{VD: 0, Factor: 4, Window: Window{Start: 2, End: 6}},
			{VD: 0, Factor: 2, Window: Window{Start: 4, End: 8}},
		},
	}
	if s.BSDownAt(1, 4) || !s.BSDownAt(1, 5) || !s.BSDownAt(1, 9) || s.BSDownAt(1, 10) {
		t.Fatal("BSDownAt disagrees with the half-open window")
	}
	if s.BSDownAt(0, 6) {
		t.Fatal("healthy BS reported down")
	}
	if got := s.StormBoost(0, 3); got != 4 {
		t.Fatalf("boost at 3 = %v, want 4", got)
	}
	if got := s.StormBoost(0, 5); got != 8 {
		t.Fatalf("overlapping storms compound: boost at 5 = %v, want 8", got)
	}
	if got := s.StormBoost(0, 20); got != 1 {
		t.Fatalf("boost outside windows = %v, want 1", got)
	}
	if s.VDStormFn(1) != nil {
		t.Fatal("VD without storms got a boost function")
	}
	if fn := s.VDStormFn(0); fn == nil || fn(3) != 4 {
		t.Fatal("storming VD's boost function wrong")
	}
	if s.DatasetNeutral() {
		t.Fatal("a schedule with storms can never be dataset neutral")
	}
	neutral := &Schedule{Shape: s.Shape, Crashes: s.Crashes}
	if !neutral.DatasetNeutral() {
		t.Fatal("recovered crash-only schedule with no penalty is neutral")
	}
	neutral.PenaltyUS = 100
	if neutral.DatasetNeutral() {
		t.Fatal("a latency penalty is dataset-visible")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	p := &Plan{BSCrashes: 4, Storms: 2}
	a := p.Expand(1, testShape())
	b := p.Expand(1, testShape())
	b.Crashes[0].End++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint blind to a window edge")
	}
	c := p.Expand(1, testShape())
	c.PenaltyUS = 1
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint blind to the penalty")
	}
}

func TestStatsMergeAndString(t *testing.T) {
	a := Stats{CrashWindows: 2, StormWindows: 1, FaultedIOs: 10, StormIOs: 3}
	a.Merge(Stats{FaultedIOs: 5, StormIOs: 4})
	if a.FaultedIOs != 15 || a.StormIOs != 7 || a.CrashWindows != 2 {
		t.Fatalf("merge = %+v", a)
	}
	if !strings.Contains(a.String(), "15 faulted IOs") {
		t.Fatalf("stats string = %q", a.String())
	}
	s := (&Plan{BSCrashes: 1, Storms: 1, FailoverPenaltyUS: 5}).Expand(1, testShape())
	str := s.String()
	if !strings.Contains(str, "crash") || !strings.Contains(str, "storm") || !strings.Contains(str, "penalty") {
		t.Fatalf("schedule string = %q", str)
	}
}

// TestLeaderKillExpansion pins the control-plane fault windows: seeded
// determinism, the mid-run trigger range, dedup of equal draws, expansion
// independent of DurSec (the trigger is logical, not temporal), and the
// append-only fingerprint rule that keeps kill-free schedules compatible
// with fingerprints minted before leader kills existed.
func TestLeaderKillExpansion(t *testing.T) {
	p := &Plan{LeaderKills: 4}
	shape := Shape{BSs: 3, VDs: 8, DurSec: 10, Shards: 5}

	s1 := p.Expand(7, shape)
	s2 := p.Expand(7, shape)
	if len(s1.LeaderKills) == 0 {
		t.Fatal("no leader kills expanded")
	}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatal("same (plan, seed, shape) expanded to different schedules")
	}
	seen := map[int]bool{}
	last := 0
	for _, k := range s1.LeaderKills {
		if k.AfterResults < 1 || k.AfterResults > shape.Shards-1 {
			t.Fatalf("trigger %d outside mid-run range [1, %d]", k.AfterResults, shape.Shards-1)
		}
		if k.AfterResults < last {
			t.Fatalf("kills not sorted: %v", s1.LeaderKills)
		}
		if seen[k.AfterResults] {
			t.Fatalf("duplicate trigger %d survived dedup: %v", k.AfterResults, s1.LeaderKills)
		}
		seen[k.AfterResults] = true
		last = k.AfterResults
	}

	// Logical windows expand even when the temporal shape is empty.
	s3 := p.Expand(7, Shape{Shards: 5})
	if len(s3.LeaderKills) != len(s1.LeaderKills) {
		t.Fatalf("zero-duration shape expanded %d kills, want %d", len(s3.LeaderKills), len(s1.LeaderKills))
	}
	// ... but not without a shard plan to be mid-run of.
	if got := p.Expand(7, Shape{BSs: 3, VDs: 8, DurSec: 10}); len(got.LeaderKills) != 0 {
		t.Fatalf("shardless shape expanded %d kills, want 0", len(got.LeaderKills))
	}

	// A kill-free schedule must fingerprint identically whether or not the
	// shape carries a shard count: the leader-kill section is append-only.
	base := (&Plan{BSCrashes: 2}).Expand(7, Shape{BSs: 3, VDs: 8, DurSec: 10})
	withShards := (&Plan{BSCrashes: 2}).Expand(7, Shape{BSs: 3, VDs: 8, DurSec: 10, Shards: 5})
	if base.Fingerprint() != withShards.Fingerprint() {
		t.Fatal("kill-free fingerprint depends on Shape.Shards; committed fixtures would break")
	}

	// Kills must not affect where crashes/storms land (independent streams).
	noKills := (&Plan{BSCrashes: 2, Storms: 2}).Expand(7, shape)
	withKills := (&Plan{BSCrashes: 2, Storms: 2, LeaderKills: 3}).Expand(7, shape)
	if len(noKills.Crashes) != len(withKills.Crashes) || len(noKills.Storms) != len(withKills.Storms) {
		t.Fatal("adding leader kills changed crash/storm counts")
	}
	for i := range noKills.Crashes {
		if noKills.Crashes[i] != withKills.Crashes[i] {
			t.Fatal("adding leader kills moved a crash window")
		}
	}

	if err := (&Plan{LeaderKills: -1}).Validate(); err == nil {
		t.Fatal("negative LeaderKills validated")
	}
}
